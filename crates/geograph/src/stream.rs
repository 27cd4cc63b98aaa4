//! Streaming two-pass CSR ingest: build a [`Graph`] — or one shard's
//! rows of it — from a re-emittable edge stream without ever staging a
//! `Vec<(VertexId, VertexId)>`.
//!
//! The staged path ([`Graph::from_edges`] fed by [`crate::GraphBuilder`])
//! holds three copies of every edge at peak: the builder's pair list, the
//! cleaned clone, and the CSR arrays — ~3× the final footprint. This module
//! replaces staging with two passes over a [`ChunkedEdges`] source:
//!
//! 1. **Count** — every chunk is emitted once and per-row degrees are
//!    accumulated into atomic counters (8 bytes/row transient, both
//!    directions together).
//! 2. **Scatter** — offsets come from a checked prefix sum, the chunks are
//!    emitted again, and each edge is written straight into its CSR run
//!    through a per-row atomic cursor (the reused counters).
//!
//! A third parallel sweep sorts each adjacency run, which is what makes the
//! result *bit-identical* to [`Graph::from_edges`] at any thread count: the
//! scatter order is racy, but a sorted run has one canonical layout.
//! Optional cleaning (self-loop drop at emit time, per-run dedup compaction
//! after the sort) reproduces [`crate::GraphBuilder`]'s global
//! sort+dedup semantics exactly, because duplicates of `(u, v)` are
//! adjacent in `u`'s sorted out-run and in `v`'s sorted in-run.
//!
//! One private kernel runs these passes for both public builds. It is
//! generic over a row map: [`build_chunked`] keeps every vertex under its
//! own id, [`crate::ShardView::build_streamed`] keeps one shard's owned
//! range, marks its ghost fringe and stores local ids. A source that breaks
//! the re-emission contract — its second pass differs from its first — is
//! caught and reported as [`BuildError::SourceChanged`], never scattered
//! out of bounds or returned as a corrupt CSR.
//!
//! Peak transient memory is the two counter planes (`8n` bytes, reused as
//! scatter cursors) — for paper-density graphs (~14 edges/vertex) that is
//! well under 0.2× the final CSR, vs ~2× for the staged path.
//!
//! Because the kept-edge count is capped at `u32` (that is what keeps the
//! counter planes at 4 bytes/vertex/direction), the prefix sums build
//! narrow [`Offsets`] directly — the streamed path never widens an offset
//! to `usize` at any point of the build.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::csr::Graph;
use crate::offsets::Offsets;
use crate::VertexId;

/// Typed failure of a graph build — overflow and range conditions that the
/// panicking [`Graph::from_edges`] path treats as programming errors become
/// recoverable errors here, because at paper scale they are *data* errors
/// (a 2^31-edge stream is a real input, not a bug).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The vertex count does not fit [`VertexId`] (ids are `u32`; the
    /// all-ones value is reserved).
    TooManyVertices { n: usize },
    /// The stream emitted ≥ 2^32 kept edges. Streamed ingest tracks
    /// per-vertex degrees in `u32` counters (that is what keeps the
    /// transient footprint at 8 bytes/vertex), so a stream at or past
    /// 2^32 edges could wrap a counter; the exact total is tracked in
    /// 64 bits so the condition is detected, not wrapped.
    TooManyEdges { edges: u64 },
    /// An emitted edge references a vertex `>= n`.
    EdgeOutOfRange { u: VertexId, v: VertexId, n: usize },
    /// CSR offset accumulation overflowed `usize`.
    OffsetOverflow,
    /// A [`ChunkedEdges`] source emitted different edges on the scatter
    /// pass than on the count pass — e.g. a file rewritten between the two
    /// reads. The [`ChunkedEdges`] contract was broken; nothing was built.
    SourceChanged,
    /// A shard build's [`crate::ShardSpec`] covers `spec` vertices but the
    /// stream has `n`.
    ShardSpecMismatch { spec: usize, n: usize },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::TooManyVertices { n } => {
                write!(f, "vertex count {n} exceeds VertexId range")
            }
            BuildError::TooManyEdges { edges } => {
                write!(f, "edge stream emitted {edges} kept edges (streamed ingest caps at 2^32-1)")
            }
            BuildError::EdgeOutOfRange { u, v, n } => {
                write!(f, "edge ({u},{v}) out of range for n={n}")
            }
            BuildError::OffsetOverflow => write!(f, "CSR offset accumulation overflowed usize"),
            BuildError::SourceChanged => {
                write!(f, "edge source emitted different edges on its second pass")
            }
            BuildError::ShardSpecMismatch { spec, n } => {
                write!(f, "shard spec covers {spec} vertices, stream has {n}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// An edge source that can re-emit any chunk of its stream on demand.
///
/// The contract that makes two-pass ingest sound: **`emit(chunk, ·)` must
/// produce the identical edge sequence every time it is called** for a
/// given chunk. Generators satisfy this by deriving a fresh RNG from
/// `(seed, chunk)`; file loaders by re-reading a byte range. Chunks may be
/// emitted in any order, concurrently, on any thread.
pub trait ChunkedEdges: Sync {
    /// Number of vertices of the output graph.
    fn num_vertices(&self) -> usize;
    /// Number of chunks the stream is split into.
    fn num_chunks(&self) -> usize;
    /// Emits every edge of `chunk` (0-based) into `sink`, in a
    /// deterministic per-chunk order.
    fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId));
    /// Optional total-edge hint (pre-cleaning), for progress reporting.
    fn edges_hint(&self) -> Option<u64> {
        None
    }
}

/// Minimal thread-pool abstraction for ingest, so `geograph` can run on the
/// trainer's persistent `WorkerPool` (which lives upstream in `rlcut` and
/// therefore cannot be named here) or on plain scoped threads.
///
/// `run` must invoke `job(i)` exactly once for every `i in 0..threads()`,
/// concurrently or not, and return only after all invocations finish.
pub trait IngestPool {
    /// Number of workers `run` will invoke.
    fn threads(&self) -> usize;
    /// Runs `job(0..threads())` to completion.
    fn run(&self, job: &(dyn Fn(usize) + Sync));
}

/// The built-in [`IngestPool`]: spawns scoped threads per call. Zero setup
/// cost, good enough for one-shot builds; long-lived training sessions pass
/// their persistent pool instead.
#[derive(Clone, Copy, Debug)]
pub struct ScopedPool(pub usize);

impl IngestPool for ScopedPool {
    fn threads(&self) -> usize {
        self.0.max(1)
    }

    fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        let t = self.threads();
        if t == 1 {
            job(0);
            return;
        }
        std::thread::scope(|s| {
            for i in 1..t {
                s.spawn(move || job(i));
            }
            job(0);
        });
    }
}

/// Cleaning options for streamed builds, mirroring [`crate::GraphBuilder`]'s
/// defaults.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Remove duplicate `(u, v)` edges (post-sort compaction).
    pub dedup: bool,
    /// Drop `(v, v)` edges at emit time.
    pub drop_self_loops: bool,
}

impl StreamConfig {
    /// `GraphBuilder` semantics: dedup + drop self-loops. A streamed build
    /// with this config is bit-identical to `GraphBuilder::build` over the
    /// same edge multiset.
    pub fn cleaned() -> Self {
        StreamConfig { dedup: true, drop_self_loops: true }
    }

    /// `Graph::from_edges` semantics: keep everything. A streamed build
    /// with this config is bit-identical to `from_edges` over the same
    /// edge multiset.
    pub fn verbatim() -> Self {
        StreamConfig { dedup: false, drop_self_loops: false }
    }
}

/// What a streamed build did and what it cost in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Edges emitted by the source (pre-cleaning).
    pub raw_edges: u64,
    /// Edges in the built graph.
    pub edges: usize,
    /// Self-loops dropped at emit time.
    pub self_loops_dropped: u64,
    /// Duplicate edges removed by compaction.
    pub duplicates_removed: u64,
    /// Heap bytes of the final CSR (both directions, offsets + targets).
    pub csr_bytes: usize,
    /// Peak transient heap held *in addition to* the CSR during the build
    /// (the two atomic counter/cursor planes).
    pub transient_bytes: usize,
}

impl IngestReport {
    /// Peak accounted build footprint: final CSR plus transients.
    pub fn peak_bytes(&self) -> usize {
        self.csr_bytes + self.transient_bytes
    }

    /// Peak footprint as a multiple of the final CSR size. The staged path
    /// sits near 2–3×; streamed ingest must stay under ~1.2×.
    pub fn build_ratio(&self) -> f64 {
        if self.csr_bytes == 0 {
            return 1.0;
        }
        self.peak_bytes() as f64 / self.csr_bytes as f64
    }
}

/// Shared mutable slice for the scatter and sort passes. Each write index
/// is claimed by a `fetch_add` on the owning row's cursor, so no two
/// threads ever write the same slot.
struct SharedSlice<T>(*mut T);
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// The base pointer. A method (rather than field access) so closures
    /// capture the whole `Sync` wrapper, not the raw pointer field.
    #[inline]
    fn base(&self) -> *mut T {
        self.0
    }
}

/// How a streamed ingest maps edge endpoints onto the rows it keeps.
///
/// [`ingest_rows`] is generic over it, so each build monomorphizes its own
/// per-edge code: the full graph ([`AllRows`]) keeps every vertex under
/// its own id and compiles to plain counting and scattering, while a shard
/// ([`crate::shard::ShardView::build_streamed`]) keeps an owned range,
/// marks cross-range neighbors in a ghost bitmap and stores local ids.
pub(crate) trait RowMap: Sync {
    /// Number of rows the build keeps.
    fn num_rows(&self) -> usize;
    /// The row of vertex `v`, or `None` when the build does not keep it.
    fn row(&self, v: VertexId) -> Option<usize>;
    /// Count pass: `w` is a kept neighbor of a row but has no row itself.
    fn mark_foreign(&self, w: VertexId);
    /// Runs once, between the count pass and the scatter pass.
    fn seal(&mut self);
    /// Scatter pass: the id stored for neighbor `w`, or `None` when the
    /// count pass never marked `w` (the source changed between passes).
    fn id(&self, w: VertexId) -> Option<VertexId>;
}

/// The full-graph [`RowMap`]: every vertex is a row, ids are unchanged.
struct AllRows(usize);

impl RowMap for AllRows {
    fn num_rows(&self) -> usize {
        self.0
    }

    fn row(&self, v: VertexId) -> Option<usize> {
        Some(v as usize)
    }

    fn mark_foreign(&self, _w: VertexId) {}

    fn seal(&mut self) {}

    fn id(&self, w: VertexId) -> Option<VertexId> {
        Some(w)
    }
}

/// The kept rows of a streamed ingest as a narrow CSR, plus what the
/// passes counted. Callers wrap it as a [`Graph`] or a shard view.
pub(crate) struct IngestedRows {
    /// Edges emitted by the source (pre-cleaning, whole stream).
    pub(crate) raw_edges: u64,
    /// Self-loops dropped at emit time (whole stream).
    pub(crate) self_loops_dropped: u64,
    /// Entries dedup compaction removed from the out-rows.
    pub(crate) out_duplicates: u64,
    /// Entries dedup compaction removed from the in-rows.
    pub(crate) in_duplicates: u64,
    /// Bytes of the two counter/cursor planes.
    pub(crate) counter_bytes: usize,
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<VertexId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<VertexId>,
}

/// Fails with [`BuildError::TooManyVertices`] when `n` does not fit
/// [`VertexId`].
pub(crate) fn check_vertex_count(n: usize) -> Result<(), BuildError> {
    if n >= VertexId::MAX as usize {
        return Err(BuildError::TooManyVertices { n });
    }
    Ok(())
}

/// The streamed two-pass ingest behind [`build_chunked`] and
/// [`crate::shard::ShardView::build_streamed`]: count, checked narrow
/// prefix sums, scatter through the reused counters, per-row sort and
/// optional dedup compaction, over the rows `map` keeps.
///
/// Range and edge-count errors are raised over the whole stream, whatever
/// rows `map` keeps. A source whose second pass differs from its first —
/// a different edge total, an edge landing outside the run the count pass
/// sized, a run left short, or a neighbor the count pass never marked —
/// fails with [`BuildError::SourceChanged`]; every scatter write is bound
/// checked first, so a changing source never writes out of bounds.
pub(crate) fn ingest_rows<S: ChunkedEdges + ?Sized, M: RowMap>(
    src: &S,
    cfg: StreamConfig,
    pool: &dyn IngestPool,
    map: &mut M,
) -> Result<IngestedRows, BuildError> {
    let n = src.num_vertices();
    check_vertex_count(n)?;
    let rows = map.num_rows();
    let num_chunks = src.num_chunks();

    // ---- Pass 1: count degrees. ------------------------------------------
    // One u32 counter per row per direction; wrap is impossible below 2^32
    // total kept edges, and the exact total is tracked in 64 bits so the
    // >= 2^32 case is a typed error, never a silent wrap.
    let out_cnt: Vec<AtomicU32> = (0..rows).map(|_| AtomicU32::new(0)).collect();
    let in_cnt: Vec<AtomicU32> = (0..rows).map(|_| AtomicU32::new(0)).collect();
    let raw_edges = AtomicU64::new(0);
    let loops_dropped = AtomicU64::new(0);
    // First out-of-range edge, packed (u << 32) | v; u64::MAX = none.
    let bad_edge = AtomicU64::new(u64::MAX);
    {
        let map = &*map;
        let next_chunk = AtomicUsize::new(0);
        pool.run(&|_worker| {
            let mut local_raw = 0u64;
            let mut local_loops = 0u64;
            loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    break;
                }
                src.emit(c, &mut |u, v| {
                    local_raw += 1;
                    if (u as usize) >= n || (v as usize) >= n {
                        let packed = ((u as u64) << 32) | v as u64;
                        let _ = bad_edge.compare_exchange(
                            u64::MAX,
                            packed,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                        return;
                    }
                    if cfg.drop_self_loops && u == v {
                        local_loops += 1;
                        return;
                    }
                    let (ru, rv) = (map.row(u), map.row(v));
                    if let Some(i) = ru {
                        out_cnt[i].fetch_add(1, Ordering::Relaxed);
                        if rv.is_none() {
                            map.mark_foreign(v);
                        }
                    }
                    if let Some(j) = rv {
                        in_cnt[j].fetch_add(1, Ordering::Relaxed);
                        if ru.is_none() {
                            map.mark_foreign(u);
                        }
                    }
                });
            }
            raw_edges.fetch_add(local_raw, Ordering::Relaxed);
            loops_dropped.fetch_add(local_loops, Ordering::Relaxed);
        });
    }

    let raw_edges = raw_edges.into_inner();
    let loops_dropped = loops_dropped.into_inner();
    let bad = bad_edge.into_inner();
    if bad != u64::MAX {
        return Err(BuildError::EdgeOutOfRange {
            u: (bad >> 32) as VertexId,
            v: bad as VertexId,
            n,
        });
    }
    let kept = raw_edges - loops_dropped;
    if kept > VertexId::MAX as u64 {
        return Err(BuildError::TooManyEdges { edges: kept });
    }
    map.seal();
    let map = &*map;

    // ---- Prefix sums (checked) and allocation. ---------------------------
    // `kept <= u32::MAX` (checked above), so every offset fits `u32`: the
    // sums accumulate narrow and are never widened to `usize`.
    let mut out_offsets = prefix_sums(&out_cnt)?;
    let mut in_offsets = prefix_sums(&in_cnt)?;
    let mut out_targets = vec![0 as VertexId; out_offsets[rows] as usize];
    let mut in_sources = vec![0 as VertexId; in_offsets[rows] as usize];

    // Reuse the counter planes as scatter cursors.
    for c in out_cnt.iter().chain(&in_cnt) {
        c.store(0, Ordering::Relaxed);
    }

    // ---- Pass 2: scatter. ------------------------------------------------
    // A write whose slot falls outside its run, or whose neighbor the
    // count pass never marked, is skipped and flags the source as changed.
    let changed = AtomicBool::new(false);
    let raw_again = AtomicU64::new(0);
    {
        let out_slots = SharedSlice(out_targets.as_mut_ptr());
        let in_slots = SharedSlice(in_sources.as_mut_ptr());
        let (out_offsets, in_offsets) = (&out_offsets, &in_offsets);
        let (out_cnt, in_cnt) = (&out_cnt, &in_cnt);
        let next_chunk = AtomicUsize::new(0);
        pool.run(&|_worker| {
            let mut local_raw = 0u64;
            let mut local_changed = false;
            loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    break;
                }
                src.emit(c, &mut |u, v| {
                    local_raw += 1;
                    if (u as usize) >= n || (v as usize) >= n {
                        local_changed = true;
                        return;
                    }
                    if cfg.drop_self_loops && u == v {
                        return;
                    }
                    if let Some(i) = map.row(u) {
                        let slot = out_cnt[i].fetch_add(1, Ordering::Relaxed) as usize;
                        let idx = out_offsets[i] as usize + slot;
                        match map.id(v) {
                            // SAFETY: idx is inside row i's run (checked)
                            // and uniquely claimed by the fetch_add.
                            Some(id) if idx < out_offsets[i + 1] as usize => unsafe {
                                out_slots.base().add(idx).write(id)
                            },
                            _ => local_changed = true,
                        }
                    }
                    if let Some(j) = map.row(v) {
                        let slot = in_cnt[j].fetch_add(1, Ordering::Relaxed) as usize;
                        let idx = in_offsets[j] as usize + slot;
                        match map.id(u) {
                            // SAFETY: as above, for the in-direction.
                            Some(id) if idx < in_offsets[j + 1] as usize => unsafe {
                                in_slots.base().add(idx).write(id)
                            },
                            _ => local_changed = true,
                        }
                    }
                });
            }
            raw_again.fetch_add(local_raw, Ordering::Relaxed);
            if local_changed {
                changed.store(true, Ordering::Relaxed);
            }
        });
    }
    if raw_again.into_inner() != raw_edges {
        changed.store(true, Ordering::Relaxed);
    }

    // ---- Pass 3: canonicalize runs (parallel per-row-block sort). --------
    // The scatter order within a run depends on thread interleaving; the
    // sort erases it. This matches `Graph::from_edges`, which sorts every
    // run, so the streamed result is bit-identical to the staged one. A
    // cursor that did not end exactly at its run's length means the
    // scatter pass emitted a different edge set.
    {
        const BLOCK: usize = 4096;
        let num_blocks = rows.div_ceil(BLOCK);
        let out_ptr = SharedSlice(out_targets.as_mut_ptr());
        let in_ptr = SharedSlice(in_sources.as_mut_ptr());
        let (out_offsets, in_offsets) = (&out_offsets, &in_offsets);
        let (out_cnt, in_cnt, changed) = (&out_cnt, &in_cnt, &changed);
        let next_block = AtomicUsize::new(0);
        pool.run(&|_worker| loop {
            let b = next_block.fetch_add(1, Ordering::Relaxed);
            if b >= num_blocks {
                break;
            }
            let lo = b * BLOCK;
            let hi = (lo + BLOCK).min(rows);
            for r in lo..hi {
                let out_len = out_offsets[r + 1] - out_offsets[r];
                let in_len = in_offsets[r + 1] - in_offsets[r];
                if out_cnt[r].load(Ordering::Relaxed) != out_len
                    || in_cnt[r].load(Ordering::Relaxed) != in_len
                {
                    changed.store(true, Ordering::Relaxed);
                }
                // SAFETY: runs [offsets[r], offsets[r+1]) are disjoint per
                // row, and each row belongs to exactly one block.
                unsafe {
                    std::slice::from_raw_parts_mut(
                        out_ptr.base().add(out_offsets[r] as usize),
                        out_len as usize,
                    )
                    .sort_unstable();
                    std::slice::from_raw_parts_mut(
                        in_ptr.base().add(in_offsets[r] as usize),
                        in_len as usize,
                    )
                    .sort_unstable();
                }
            }
        });
        let _ = (out_ptr, in_ptr);
    }
    if changed.into_inner() {
        return Err(BuildError::SourceChanged);
    }

    // ---- Optional dedup compaction (sequential, in place). ---------------
    // Duplicates of (u, v) sit adjacent in u's sorted out-run *and* in v's
    // sorted in-run, so per-run dedup removes exactly the same edge set in
    // both directions — equivalent to GraphBuilder's global sort+dedup.
    let (mut out_duplicates, mut in_duplicates) = (0u64, 0u64);
    if cfg.dedup {
        let (out_before, in_before) = (out_targets.len(), in_sources.len());
        compact_runs(&mut out_offsets, &mut out_targets);
        compact_runs(&mut in_offsets, &mut in_sources);
        out_duplicates = (out_before - out_targets.len()) as u64;
        in_duplicates = (in_before - in_sources.len()) as u64;
        // Return the compaction slack to the allocator — the dead
        // capacity is 4 bytes per removed entry, and `heap_bytes`
        // (deliberately) charges capacity. At paper scale these are
        // multi-MB blocks, which glibc shrinks in place via mremap rather
        // than copying.
        out_targets.shrink_to_fit();
        in_sources.shrink_to_fit();
    }

    let counter_bytes = 2 * rows * std::mem::size_of::<AtomicU32>();
    drop(out_cnt);
    drop(in_cnt);
    Ok(IngestedRows {
        raw_edges,
        self_loops_dropped: loops_dropped,
        out_duplicates,
        in_duplicates,
        counter_bytes,
        out_offsets,
        out_targets,
        in_offsets,
        in_sources,
    })
}

/// Builds a [`Graph`] from a chunked edge stream in two passes, without a
/// staging edge list. Deterministic — bit-identical output for a fixed
/// source and config — at any `pool.threads()`.
pub fn build_chunked<S: ChunkedEdges + ?Sized>(
    src: &S,
    cfg: StreamConfig,
    pool: &dyn IngestPool,
) -> Result<(Graph, IngestReport), BuildError> {
    let n = src.num_vertices();
    let rows = ingest_rows(src, cfg, pool, &mut AllRows(n))?;
    debug_assert_eq!(rows.out_duplicates, rows.in_duplicates);
    let graph = Graph::from_csr_parts(
        n,
        Offsets::U32(rows.out_offsets),
        rows.out_targets,
        Offsets::U32(rows.in_offsets),
        rows.in_sources,
    );
    let report = IngestReport {
        raw_edges: rows.raw_edges,
        edges: graph.num_edges(),
        self_loops_dropped: rows.self_loops_dropped,
        duplicates_removed: rows.out_duplicates,
        csr_bytes: graph.heap_bytes(),
        transient_bytes: rows.counter_bytes,
    };
    Ok((graph, report))
}

/// Checked narrow prefix sums of a counter plane: `counts.len() + 1`
/// offsets starting at 0.
fn prefix_sums(counts: &[AtomicU32]) -> Result<Vec<u32>, BuildError> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for c in counts {
        acc = acc.checked_add(c.load(Ordering::Relaxed)).ok_or(BuildError::OffsetOverflow)?;
        offsets.push(acc);
    }
    Ok(offsets)
}

/// Removes adjacent duplicates from every sorted run, shifting the flat
/// array left and rewriting offsets in place. The flat vector is truncated
/// here; [`ingest_rows`] then shrinks it to hand the slack back.
fn compact_runs(offsets: &mut [u32], flat: &mut Vec<VertexId>) {
    let n = offsets.len() - 1;
    let mut w = 0usize;
    let mut run_start = offsets[0] as usize;
    for v in 0..n {
        let run_end = offsets[v + 1] as usize;
        let mut prev: Option<VertexId> = None;
        for i in run_start..run_end {
            let t = flat[i];
            if prev != Some(t) {
                flat[w] = t;
                w += 1;
                prev = Some(t);
            }
        }
        run_start = run_end;
        offsets[v + 1] = w as u32;
    }
    flat.truncate(w);
}

/// Adapter: a re-creatable sequential iterator as a one-chunk stream. The
/// factory is called once per pass.
struct IterSource<F> {
    n: usize,
    make_iter: F,
}

impl<I, F> ChunkedEdges for IterSource<F>
where
    I: Iterator<Item = (VertexId, VertexId)>,
    F: Fn() -> I + Sync,
{
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_chunks(&self) -> usize {
        1
    }

    fn emit(&self, _chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
        for (u, v) in (self.make_iter)() {
            sink(u, v);
        }
    }
}

/// Builds a [`Graph`] from a sequential edge stream that can be replayed
/// from scratch (`make_iter` is called once per pass). For inherently
/// sequential sources — preferential attachment, arrival-ordered event
/// logs — where chunk-parallel emission is impossible but the staging copy
/// is still worth eliminating.
pub fn build_streamed<I, F>(
    n: usize,
    make_iter: F,
    cfg: StreamConfig,
) -> Result<(Graph, IngestReport), BuildError>
where
    I: Iterator<Item = (VertexId, VertexId)>,
    F: Fn() -> I + Sync,
{
    build_chunked(&IterSource { n, make_iter }, cfg, &ScopedPool(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// A fixed edge list exposed as a chunked stream.
    struct VecSource {
        n: usize,
        chunk: usize,
        edges: Vec<(VertexId, VertexId)>,
    }

    impl ChunkedEdges for VecSource {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn num_chunks(&self) -> usize {
            self.edges.len().div_ceil(self.chunk).max(1)
        }
        fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
            let lo = chunk * self.chunk;
            let hi = (lo + self.chunk).min(self.edges.len());
            for &(u, v) in &self.edges[lo..hi] {
                sink(u, v);
            }
        }
    }

    fn messy_edges() -> Vec<(VertexId, VertexId)> {
        // Duplicates, self-loops, out-of-order, hub vertex 0.
        let mut e = vec![(3, 3), (1, 0), (0, 2), (0, 2), (2, 1), (0, 1), (4, 0), (0, 3)];
        for i in 0..50 {
            e.push((0, (i % 5) as VertexId));
            e.push(((i % 5) as VertexId, 0));
        }
        e
    }

    #[test]
    fn verbatim_matches_from_edges() {
        let edges = messy_edges();
        let staged = Graph::from_edges(5, &edges);
        for threads in [1, 2, 4] {
            for chunk in [1, 3, 1000] {
                let src = VecSource { n: 5, chunk, edges: edges.clone() };
                let (g, rep) =
                    build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(threads)).unwrap();
                assert_eq!(g, staged, "threads={threads} chunk={chunk}");
                assert_eq!(rep.raw_edges as usize, edges.len());
                assert_eq!(rep.edges, edges.len());
            }
        }
    }

    #[test]
    fn cleaned_matches_graph_builder() {
        let edges = messy_edges();
        let mut b = GraphBuilder::new(5);
        b.add_edges(edges.iter().copied());
        let staged = b.build();
        for threads in [1, 3] {
            let src = VecSource { n: 5, chunk: 4, edges: edges.clone() };
            let (g, rep) =
                build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(threads)).unwrap();
            assert_eq!(g, staged, "threads={threads}");
            // (3,3) plus the 20 (0,0) pairs from the hub loop.
            assert_eq!(rep.self_loops_dropped, 21);
            assert!(rep.duplicates_removed > 0);
            assert_eq!(rep.edges, staged.num_edges());
        }
    }

    #[test]
    fn empty_stream() {
        let src = VecSource { n: 3, chunk: 8, edges: vec![] };
        let (g, rep) = build_chunked(&src, StreamConfig::cleaned(), &ScopedPool(2)).unwrap();
        assert_eq!(g, Graph::empty(3));
        assert_eq!(rep.raw_edges, 0);
        // Offset arrays still exist, so the ratio is finite and >= 1.
        assert!(rep.build_ratio() >= 1.0);
    }

    #[test]
    fn out_of_range_is_typed_error() {
        let src = VecSource { n: 3, chunk: 8, edges: vec![(0, 1), (5, 1)] };
        let err = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(1)).unwrap_err();
        assert_eq!(err, BuildError::EdgeOutOfRange { u: 5, v: 1, n: 3 });
    }

    #[test]
    fn too_many_vertices_is_typed_error() {
        let src = VecSource { n: u32::MAX as usize, chunk: 8, edges: vec![] };
        let err = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(1)).unwrap_err();
        assert!(matches!(err, BuildError::TooManyVertices { .. }));
    }

    #[test]
    fn sequential_stream_matches_staged() {
        let edges = messy_edges();
        let staged = Graph::from_edges(5, &edges);
        let (g, _) = build_streamed(5, || edges.iter().copied(), StreamConfig::verbatim()).unwrap();
        assert_eq!(g, staged);
    }

    #[test]
    fn report_accounts_transients() {
        let src = VecSource { n: 5, chunk: 4, edges: messy_edges() };
        let (g, rep) = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(2)).unwrap();
        assert_eq!(rep.csr_bytes, g.heap_bytes());
        assert_eq!(rep.transient_bytes, 2 * 5 * 4);
        assert!(rep.build_ratio() > 1.0);
    }

    type Edge = (VertexId, VertexId);

    /// A source that breaks the re-emission contract: the count pass sees
    /// `first`, the scatter pass `second`. Two chunks, split by index
    /// parity; every pass emits both chunks once, so the call count tells
    /// the passes apart.
    struct ChangingSource {
        n: usize,
        first: Vec<Edge>,
        second: Vec<Edge>,
        calls: AtomicUsize,
    }

    impl ChangingSource {
        fn new(n: usize, first: &[Edge], second: &[Edge]) -> Self {
            ChangingSource {
                n,
                first: first.to_vec(),
                second: second.to_vec(),
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl ChunkedEdges for ChangingSource {
        fn num_vertices(&self) -> usize {
            self.n
        }
        fn num_chunks(&self) -> usize {
            2
        }
        fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
            let pass = self.calls.fetch_add(1, Ordering::Relaxed) / 2;
            let edges = if pass == 0 { &self.first } else { &self.second };
            for &(u, v) in edges.iter().skip(chunk).step_by(2) {
                sink(u, v);
            }
        }
    }

    /// Edge lists whose second pass differs from the first: fewer edges,
    /// more edges, the same count landing in other runs, a self-loop
    /// replacing a kept edge, and an out-of-range edge.
    fn changed_passes() -> Vec<(Vec<Edge>, Vec<Edge>)> {
        vec![
            (vec![(1, 2), (2, 3)], vec![(1, 2)]),
            (vec![(1, 2)], vec![(1, 2), (2, 3)]),
            (vec![(0, 1), (2, 3)], vec![(0, 2), (2, 3)]),
            (vec![(0, 1), (2, 3)], vec![(0, 1), (1, 1)]),
            (vec![(0, 1), (2, 3)], vec![(0, 1), (2, 9)]),
        ]
    }

    #[test]
    fn changed_source_is_typed_error_for_full_builds() {
        // Control: the fixture with identical passes builds normally.
        let edges = [(0, 1), (2, 3), (1, 2)];
        let src = ChangingSource::new(4, &edges, &edges);
        let (g, _) = build_chunked(&src, StreamConfig::verbatim(), &ScopedPool(2)).unwrap();
        assert_eq!(g, Graph::from_edges(4, &edges));
        for (first, second) in changed_passes() {
            for threads in [1, 2] {
                for cfg in [StreamConfig::verbatim(), StreamConfig::cleaned()] {
                    let src = ChangingSource::new(4, &first, &second);
                    let err = build_chunked(&src, cfg, &ScopedPool(threads)).unwrap_err();
                    assert_eq!(
                        err,
                        BuildError::SourceChanged,
                        "{first:?} then {second:?} at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn changed_source_is_typed_error_for_shard_builds() {
        let spec = crate::ShardSpec::contiguous(4, 2);
        for (first, second) in changed_passes() {
            for threads in [1, 2] {
                // Shard 0 owns {0, 1}: every case changes one of its runs,
                // references a vertex its count pass never marked as a
                // ghost, or changes the stream's edge count.
                let src = ChangingSource::new(4, &first, &second);
                let err = crate::ShardView::build_streamed(
                    &src,
                    StreamConfig::verbatim(),
                    &spec,
                    0,
                    &ScopedPool(threads),
                )
                .unwrap_err();
                assert_eq!(
                    err,
                    BuildError::SourceChanged,
                    "{first:?} then {second:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn display_messages() {
        assert!(BuildError::OffsetOverflow.to_string().contains("overflow"));
        assert!(BuildError::EdgeOutOfRange { u: 1, v: 2, n: 1 }.to_string().contains("(1,2)"));
        assert!(BuildError::SourceChanged.to_string().contains("second pass"));
        assert!(BuildError::ShardSpecMismatch { spec: 3, n: 4 }.to_string().contains("covers 3"));
    }
}
