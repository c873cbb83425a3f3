//! Traffic feature distributions and their entropy summaries.
//!
//! This crate implements §3 of the paper: empirical histograms of the four
//! traffic features (source/destination address and port), the **sample
//! entropy** metric that summarizes a distribution's concentration or
//! dispersal in one number, and the data structures that organize entropy
//! values into the three-way matrix `H(t, p, k)` analysed by the multiway
//! subspace method.
//!
//! * [`FeatureHistogram`] — a counting histogram over one feature: an
//!   open-addressing, linear-probing flat table tuned for the ingest hot
//!   path, with the previous `HashMap`-backed implementation kept as the
//!   pinned observational-equivalence reference ([`MapHistogram`]).
//! * [`sample_entropy`] — `H(X) = -Σ (n_i/S) log2(n_i/S)`, computed as an
//!   order-independent pure function of the count multiset (sorted-count
//!   iteration, Neumaier-compensated summation) so merging and map-side
//!   combining cannot perturb a bit; plus the normalized variant and
//!   alternative dispersion metrics used for ablation (the paper:
//!   "entropy is not the only metric ... we have explored other metrics
//!   and find that entropy works well in practice").
//! * [`BinAccumulator`] / [`BinSummary`] — per-(OD flow, time bin) state:
//!   four feature histograms plus packet and byte counts, summarized into
//!   the six per-bin numbers the paper's timeseries use (bytes, packets,
//!   and four entropies).
//! * [`EntropyTensor`] — the `t x p x 4` tensor `H`, with the unfolding
//!   `H -> t x 4p` of §4.2 (submatrix per feature, in srcIP | srcPort |
//!   dstIP | dstPort order).
//! * [`VolumeMatrix`] — the `t x p` byte and packet count matrices used by
//!   the volume-based baseline detector of Lakhina et al. SIGCOMM 2004.
//! * [`stream`] — the streaming ingest stage's contract: event time,
//!   watermarks, lateness, and the serial [`StreamingGridBuilder`] that
//!   keeps accumulators only for open bins and absorbs one event at a
//!   time. It is the executable specification the production plane and
//!   the equivalence suites are pinned against.
//! * [`shard`] — the production ingest plane and the only batch engine:
//!   flows hash-partitioned across per-shard grids behind a watermark
//!   coordinator. Every batch is validated atomically, rank-sorted into
//!   `(bin, flow, flow-key)` runs, and absorbed through weighted `add_n`
//!   with scoped-thread fan-out, emitting `FinalizedBin` rows
//!   bit-identical to the serial builder's at any shard count.
//! * [`kernel`] — the runtime-dispatched SIMD variant of the entropy
//!   finalization's compensated `Σ n·log2 n` reduction
//!   (tolerance-pinned), sharing backend selection — and the
//!   `ENTROMINE_FORCE_SCALAR` override — with `entromine_linalg::kernel`.

// `deny` rather than `forbid`: the SIMD kernel tier (`kernel`) opts back
// in at module scope for its feature-gated `std::arch` bodies; everything
// else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accum;
mod combine;
mod hist;
pub mod kernel;
mod metrics;
pub mod shard;
pub mod stream;
mod tensor;

pub use accum::{BinAccumulator, BinSummary};
pub use hist::{FeatureHistogram, MapHistogram};
pub use metrics::{
    distinct_count, entropy_from_sorted_counts, gini_coefficient, normalized_entropy,
    sample_entropy, simpson_index,
};
pub use shard::ShardedGridBuilder;
pub use stream::{FinalizedBin, StreamConfig, StreamError, StreamingGridBuilder};
pub use tensor::{EntropyTensor, TensorBuilder, VolumeMatrix};

// Re-export the feature vocabulary: the tensor's `k` axis is these four.
pub use entromine_net::packet::{Feature, FEATURES};
