//! The three-way entropy tensor `H(t, p, k)` and volume matrices.
//!
//! §4.2 of the paper: the entropy timeseries of all `p` OD flows across the
//! four traffic features form a three-way structure. The **multiway
//! subspace method** unfolds it into a single `t x 4p` matrix by arranging
//! the per-feature submatrices side by side:
//!
//! ```text
//! H = [ H(srcIP) | H(srcPort) | H(dstIP) | H(dstPort) ]
//! ```
//!
//! (columns `1..p` hold source-IP entropy of the `p` flows, `p+1..2p`
//! source-port entropy, and so on). The unit-energy normalization of each
//! submatrix is applied by the subspace layer, not here — the raw tensor is
//! also consumed un-normalized by timeseries plots and identification.

use crate::accum::BinSummary;
use entromine_linalg::Mat;
use entromine_net::packet::{Feature, FEATURES};

/// The `t x p` byte- and packet-count matrices (the volume view of the
/// traffic used by the SIGCOMM 2004 baseline detector).
#[derive(Debug, Clone)]
pub struct VolumeMatrix {
    bytes: Mat,
    packets: Mat,
}

impl VolumeMatrix {
    /// Byte counts: rows are bins, columns OD flows.
    pub fn bytes(&self) -> &Mat {
        &self.bytes
    }

    /// Packet counts: rows are bins, columns OD flows.
    pub fn packets(&self) -> &Mat {
        &self.packets
    }

    /// Number of time bins.
    pub fn n_bins(&self) -> usize {
        self.bytes.rows()
    }

    /// Number of OD flows.
    pub fn n_flows(&self) -> usize {
        self.bytes.cols()
    }
}

/// The three-way entropy matrix `H(t, p, k)`.
///
/// Stored as four `t x p` matrices, one per feature, in [`FEATURES`] order.
#[derive(Debug, Clone)]
pub struct EntropyTensor {
    features: [Mat; 4],
}

impl EntropyTensor {
    /// Number of time bins `t`.
    pub fn n_bins(&self) -> usize {
        self.features[0].rows()
    }

    /// Number of OD flows `p`.
    pub fn n_flows(&self) -> usize {
        self.features[0].cols()
    }

    /// The `t x p` entropy matrix of one feature.
    pub fn feature(&self, f: Feature) -> &Mat {
        &self.features[f.index()]
    }

    /// Entropy value `H(t, p, k)`.
    pub fn get(&self, bin: usize, flow: usize, f: Feature) -> f64 {
        self.features[f.index()][(bin, flow)]
    }

    /// Sets one entropy value (used by injection machinery when a bin is
    /// recomputed with anomaly traffic superimposed).
    pub fn set(&mut self, bin: usize, flow: usize, f: Feature, value: f64) {
        self.features[f.index()][(bin, flow)] = value;
    }

    /// Unfolds the tensor into the `t x 4p` merged matrix of §4.2:
    /// `[H(srcIP) | H(srcPort) | H(dstIP) | H(dstPort)]`.
    pub fn unfold(&self) -> Mat {
        let t = self.n_bins();
        let p = self.n_flows();
        let mut out = Mat::zeros(t, 4 * p);
        for (k, feat) in self.features.iter().enumerate() {
            for bin in 0..t {
                let src = feat.row(bin);
                let dst = &mut out.row_mut(bin)[k * p..(k + 1) * p];
                dst.copy_from_slice(src);
            }
        }
        out
    }

    /// One row of the unfolded matrix (the 4p-vector `h` at a single bin),
    /// without materializing the full unfolding.
    pub fn unfolded_row(&self, bin: usize) -> Vec<f64> {
        let p = self.n_flows();
        let mut row = Vec::with_capacity(4 * p);
        for feat in &self.features {
            row.extend_from_slice(feat.row(bin));
        }
        row
    }

    /// The four unfolded column indices belonging to one OD flow, in
    /// [`FEATURES`] order — the columns selected by the paper's binary
    /// matrix `θ_k` during multi-attribute identification.
    pub fn flow_columns(&self, flow: usize) -> [usize; 4] {
        let p = self.n_flows();
        debug_assert!(flow < p);
        [flow, p + flow, 2 * p + flow, 3 * p + flow]
    }

    /// The entropy timeseries of one (flow, feature) pair.
    pub fn series(&self, flow: usize, f: Feature) -> Vec<f64> {
        self.features[f.index()].col(flow)
    }
}

/// Builds an [`EntropyTensor`] and [`VolumeMatrix`] from per-bin summaries.
///
/// Cells never set stay at zero (the paper's Geant data has missing-data
/// periods; zero entropy/volume is how they appear here too).
#[derive(Debug, Clone)]
pub struct TensorBuilder {
    n_bins: usize,
    n_flows: usize,
    features: [Mat; 4],
    bytes: Mat,
    packets: Mat,
}

impl TensorBuilder {
    /// A builder for `n_bins` bins of `n_flows` OD flows.
    pub fn new(n_bins: usize, n_flows: usize) -> Self {
        TensorBuilder {
            n_bins,
            n_flows,
            features: std::array::from_fn(|_| Mat::zeros(n_bins, n_flows)),
            bytes: Mat::zeros(n_bins, n_flows),
            packets: Mat::zeros(n_bins, n_flows),
        }
    }

    /// Number of bins the builder was sized for.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Number of flows the builder was sized for.
    pub fn n_flows(&self) -> usize {
        self.n_flows
    }

    /// Records the summary for one (bin, flow) cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn set(&mut self, bin: usize, flow: usize, summary: &BinSummary) {
        assert!(bin < self.n_bins, "bin {bin} out of range");
        assert!(flow < self.n_flows, "flow {flow} out of range");
        for f in FEATURES {
            self.features[f.index()][(bin, flow)] = summary.entropy[f.index()];
        }
        self.bytes[(bin, flow)] = summary.bytes as f64;
        self.packets[(bin, flow)] = summary.packets as f64;
    }

    /// Finishes the build.
    pub fn finish(self) -> (EntropyTensor, VolumeMatrix) {
        (
            EntropyTensor {
                features: self.features,
            },
            VolumeMatrix {
                bytes: self.bytes,
                packets: self.packets,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(packets: u64, bytes: u64, e: [f64; 4]) -> BinSummary {
        BinSummary {
            packets,
            bytes,
            entropy: e,
        }
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = TensorBuilder::new(3, 2);
        b.set(0, 0, &summary(10, 1000, [1.0, 2.0, 3.0, 4.0]));
        b.set(2, 1, &summary(5, 500, [0.5, 0.6, 0.7, 0.8]));
        let (tensor, vol) = b.finish();

        assert_eq!(tensor.n_bins(), 3);
        assert_eq!(tensor.n_flows(), 2);
        assert_eq!(tensor.get(0, 0, Feature::SrcIp), 1.0);
        assert_eq!(tensor.get(0, 0, Feature::DstPort), 4.0);
        assert_eq!(tensor.get(2, 1, Feature::SrcPort), 0.6);
        // Unset cells default to zero.
        assert_eq!(tensor.get(1, 1, Feature::DstIp), 0.0);

        assert_eq!(vol.bytes()[(0, 0)], 1000.0);
        assert_eq!(vol.packets()[(2, 1)], 5.0);
        assert_eq!(vol.n_bins(), 3);
        assert_eq!(vol.n_flows(), 2);
    }

    #[test]
    fn unfold_layout_matches_paper() {
        // 1 bin, 2 flows: the unfolded row must be
        // [srcIP(f0), srcIP(f1), srcPort(f0), srcPort(f1), dstIP(f0),
        //  dstIP(f1), dstPort(f0), dstPort(f1)].
        let mut b = TensorBuilder::new(1, 2);
        b.set(0, 0, &summary(1, 1, [1.0, 2.0, 3.0, 4.0]));
        b.set(0, 1, &summary(1, 1, [10.0, 20.0, 30.0, 40.0]));
        let (tensor, _) = b.finish();
        let h = tensor.unfold();
        assert_eq!(h.shape(), (1, 8));
        assert_eq!(h.row(0), &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
    }

    #[test]
    fn flow_columns_select_theta_k() {
        let b = TensorBuilder::new(1, 5);
        let (tensor, _) = b.finish();
        assert_eq!(tensor.flow_columns(2), [2, 7, 12, 17]);
    }

    #[test]
    fn series_extraction() {
        let mut b = TensorBuilder::new(3, 1);
        for bin in 0..3 {
            b.set(bin, 0, &summary(1, 1, [bin as f64, 0.0, 0.0, 0.0]));
        }
        let (tensor, _) = b.finish();
        assert_eq!(tensor.series(0, Feature::SrcIp), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_bounds_checked() {
        let mut b = TensorBuilder::new(2, 2);
        b.set(2, 0, &summary(0, 0, [0.0; 4]));
    }

    #[test]
    fn set_updates_tensor() {
        let b = TensorBuilder::new(1, 1);
        let (mut tensor, _) = b.finish();
        tensor.set(0, 0, Feature::DstIp, 5.5);
        assert_eq!(tensor.get(0, 0, Feature::DstIp), 5.5);
    }
}
