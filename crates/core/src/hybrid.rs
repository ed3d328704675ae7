//! The hybrid demapper: extracted centroids + conventional max-log.
//!
//! After extraction, inference runs entirely through the conventional
//! suboptimal soft demapper on the extracted centroid set — the ANN is
//! no longer in the data path. [`HybridDemapper`] is the software
//! reference; [`HybridDemapper::to_hardware`] instantiates the FPGA
//! accelerator design for it.

use crate::extraction::ExtractionReport;
use hybridem_comm::constellation::Constellation;
use hybridem_comm::demapper::{Demapper, MaxLogMap};
use hybridem_fpga::builder::{build_soft_demapper_design, SoftDemapperDesign};
use hybridem_fpga::demapper_accel::SoftDemapperConfig;
use hybridem_mathkit::complex::C32;

/// Max-log demapping over extracted centroids.
pub struct HybridDemapper {
    maxlog: MaxLogMap,
    sigma: f32,
}

impl HybridDemapper {
    /// Builds from an extraction report and the operating noise level.
    pub fn from_extraction(report: &ExtractionReport, sigma: f32) -> Self {
        Self::from_centroids(report.centroid_constellation(), sigma)
    }

    /// Builds from an explicit centroid constellation.
    pub fn from_centroids(centroids: Constellation, sigma: f32) -> Self {
        Self {
            maxlog: MaxLogMap::new(centroids, sigma),
            sigma,
        }
    }

    /// The centroid set in use.
    pub fn centroids(&self) -> &Constellation {
        self.maxlog.constellation()
    }

    /// Instantiates the FPGA accelerator for this demapper.
    pub fn to_hardware(&self, cfg: SoftDemapperConfig) -> SoftDemapperDesign {
        build_soft_demapper_design(self.centroids().points(), self.sigma, cfg)
    }
}

impl Demapper for HybridDemapper {
    fn bits_per_symbol(&self) -> usize {
        self.maxlog.bits_per_symbol()
    }

    fn demap_block(&self, ys: &[C32], out: &mut [f32]) {
        // Forward to the inner block kernel: the hybrid demapper adds
        // no per-symbol work of its own.
        self.maxlog.demap_block(ys, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegates_to_maxlog() {
        let qam = Constellation::qam_gray(16);
        let hybrid = HybridDemapper::from_centroids(qam.clone(), 0.2);
        let reference = MaxLogMap::new(qam.clone(), 0.2);
        let mut a = [0f32; 4];
        let mut b = [0f32; 4];
        let y = C32::new(0.4, -0.1);
        hybrid.llrs(y, &mut a);
        reference.llrs(y, &mut b);
        assert_eq!(a, b);
        assert_eq!(hybrid.bits_per_symbol(), 4);
    }

    #[test]
    fn centroid_update_changes_decisions() {
        let qam = Constellation::qam_gray(16);
        let mut hybrid = HybridDemapper::from_centroids(qam.clone(), 0.2);
        let y = qam.point(5);
        let mut before = [0u8; 4];
        hybrid.hard_decide(y, &mut before);
        // Swap in a rotated set via a synthetic report-less path.
        hybrid
            .maxlog
            .set_constellation(qam.rotated(std::f32::consts::FRAC_PI_2));
        let mut after = [0u8; 4];
        hybrid.hard_decide(y, &mut after);
        assert_ne!(before, after, "90° rotation must change decisions");
    }

    #[test]
    fn hardware_design_reports_one_dsp() {
        let qam = Constellation::qam_gray(16);
        let hybrid = HybridDemapper::from_centroids(qam, 0.2);
        let hw = hybrid.to_hardware(SoftDemapperConfig::paper_default());
        let report = hw.report(&hybridem_fpga::power::PowerModel::default());
        assert_eq!(report.usage.dsp, 1);
        assert!(report.power_w < 0.1);
    }
}
