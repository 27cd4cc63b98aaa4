//! Workload inputs, generated from the seed before any clock starts.
//!
//! The program only ever sees the generated data: R-MAT chunks held in
//! memory behind a [`ChunkedEdges`] the benchmark owns (so ingest is timed
//! without the generator inside it), precomputed window deltas, and a ring
//! of Zipf-distributed lookup ids.

use geograph::generators::{RmatChunks, RmatConfig};
use geograph::stream::ChunkedEdges;
use geograph::{Dataset, VertexId};

/// Edges per in-memory chunk: enough chunks for two ingest threads to
/// balance, few enough that per-chunk dispatch stays negligible.
const CHUNK_EDGES: usize = 1 << 18;

/// An edge stream fully materialized in memory, chunk by chunk.
pub struct MemChunks {
    num_vertices: usize,
    chunks: Vec<Vec<(VertexId, VertexId)>>,
}

impl MemChunks {
    /// Emits every chunk of `src` once, on up to `threads` threads.
    pub fn materialize(src: &dyn ChunkedEdges, threads: usize) -> MemChunks {
        let n = src.num_chunks();
        let mut chunks: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); n];
        let per = n.div_ceil(threads.max(1)).max(1);
        std::thread::scope(|s| {
            for (t, slot) in chunks.chunks_mut(per).enumerate() {
                s.spawn(move || {
                    for (i, chunk) in slot.iter_mut().enumerate() {
                        src.emit(t * per + i, &mut |u, v| chunk.push((u, v)));
                    }
                });
            }
        });
        MemChunks { num_vertices: src.num_vertices(), chunks }
    }

    pub fn num_edges(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

impl ChunkedEdges for MemChunks {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    fn emit(&self, chunk: usize, sink: &mut dyn FnMut(VertexId, VertexId)) {
        for &(u, v) in &self.chunks[chunk] {
            sink(u, v);
        }
    }

    fn edges_hint(&self) -> Option<u64> {
        Some(self.num_edges() as u64)
    }
}

/// The R-MAT analog of `dataset` at `scale`, materialized in memory.
pub fn rmat_dataset(dataset: Dataset, scale: f64, seed: u64, threads: usize) -> MemChunks {
    let (config, seed): (RmatConfig, u64) = dataset.rmat_setup(scale, seed);
    MemChunks::materialize(&RmatChunks::new(config, seed, CHUNK_EDGES), threads)
}

/// SplitMix64: a tiny seeded generator for the lookup ring, independent of
/// the program's own RNG.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `len` Zipf(`s`)-distributed vertex ids over `[0, n)`; rank 1 is vertex 0.
pub fn zipf_ring(n: usize, s: f64, len: usize, seed: u64) -> Vec<VertexId> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    for rank in 1..=n {
        acc += (rank as f64).powf(-s);
        cdf.push(acc);
    }
    let mut rng = SplitMix(seed ^ 0x5a1f_0ace_0dd5_eed5);
    (0..len)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c < u).min(n - 1) as VertexId
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use geograph::stream::{build_chunked, ScopedPool, StreamConfig};

    #[test]
    fn in_memory_chunks_build_the_generated_graph() {
        let (config, seed) = Dataset::LiveJournal.rmat_setup(0.001, 3);
        let direct = RmatChunks::new(config, seed, CHUNK_EDGES);
        let mem = MemChunks::materialize(&direct, 2);
        let (a, _) = build_chunked(&direct, StreamConfig::cleaned(), &ScopedPool(1)).unwrap();
        let (b, _) = build_chunked(&mem, StreamConfig::cleaned(), &ScopedPool(2)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_ring_is_seeded_and_skewed() {
        let a = zipf_ring(1000, 0.99, 10_000, 7);
        assert_eq!(a, zipf_ring(1000, 0.99, 10_000, 7));
        assert_ne!(a, zipf_ring(1000, 0.99, 10_000, 8));
        let hot = a.iter().filter(|&&v| v == 0).count();
        let cold = a.iter().filter(|&&v| v == 999).count();
        assert!(hot > 10 * cold.max(1), "hot {hot} cold {cold}");
    }
}
