//! Target device models.

use crate::resources::ResourceUsage;

/// Resource capacities and default clock of an FPGA part.
#[derive(Clone, Debug)]
pub struct DeviceModel {
    /// 6-input LUT count.
    pub(crate) lut: u64,
    /// Flip-flop count.
    pub(crate) ff: u64,
    /// DSP48 slice count.
    pub(crate) dsp: u64,
    /// 36 Kb block-RAM count (18 Kb halves count as 0.5).
    pub(crate) bram36: f64,
}

impl DeviceModel {
    /// Xilinx Zynq UltraScale+ ZU3EG — the paper's Ultra96-V2 part.
    pub fn zu3eg() -> Self {
        Self {
            lut: 70_560,
            ff: 141_120,
            dsp: 360,
            bram36: 216.0,
        }
    }

    /// True if `usage` fits this device.
    pub fn fits(&self, usage: &ResourceUsage) -> bool {
        usage.lut <= self.lut
            && usage.ff <= self.ff
            && usage.dsp <= self.dsp
            && usage.bram36 <= self.bram36
    }

    /// Utilisation fractions `(lut, ff, dsp, bram)` of a usage.
    pub fn utilization(&self, usage: &ResourceUsage) -> (f64, f64, f64, f64) {
        (
            usage.lut as f64 / self.lut as f64,
            usage.ff as f64 / self.ff as f64,
            usage.dsp as f64 / self.dsp as f64,
            usage.bram36 / self.bram36,
        )
    }

    /// How many copies of a module fit on the device (the paper's
    /// "demapping in parallel by instantiating multiple modules of the
    /// soft-demapper"), with a routing/utilisation margin (fraction of
    /// each resource usable in practice, e.g. 0.8).
    pub fn max_instances(&self, usage: &ResourceUsage, margin: f64) -> u64 {
        assert!(margin > 0.0 && margin <= 1.0);
        let mut n = u64::MAX;
        if usage.lut > 0 {
            n = n.min((self.lut as f64 * margin / usage.lut as f64) as u64);
        }
        if usage.ff > 0 {
            n = n.min((self.ff as f64 * margin / usage.ff as f64) as u64);
        }
        if usage.dsp > 0 {
            n = n.min((self.dsp as f64 * margin / usage.dsp as f64) as u64);
        }
        if usage.bram36 > 0.0 {
            n = n.min((self.bram36 * margin / usage.bram36) as u64);
        }
        if n == u64::MAX {
            0
        } else {
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zu3eg_capacities() {
        let d = DeviceModel::zu3eg();
        assert_eq!(d.dsp, 360);
        assert_eq!(d.lut, 70_560);
    }

    #[test]
    fn fit_check() {
        let d = DeviceModel::zu3eg();
        let ok = ResourceUsage {
            lut: 10_000,
            ff: 20_000,
            dsp: 352,
            bram36: 18.5,
        };
        assert!(d.fits(&ok));
        let too_many_dsp = ResourceUsage {
            dsp: 361,
            ..ok.clone()
        };
        assert!(!d.fits(&too_many_dsp));
        let (l, f, s, b) = d.utilization(&ok);
        assert!(l > 0.14 && l < 0.15);
        assert!(f > 0.14 && f < 0.15);
        assert!((s - 352.0 / 360.0).abs() < 1e-9);
        assert!((b - 18.5 / 216.0).abs() < 1e-9);
    }

    #[test]
    fn replication_counts() {
        let d = DeviceModel::zu3eg();
        // The paper's hybrid demapper: ~1.7k LUT, 1 DSP → LUT-limited.
        let demapper = ResourceUsage {
            lut: 1736,
            ff: 768,
            dsp: 1,
            bram36: 0.0,
        };
        let n = d.max_instances(&demapper, 0.8);
        assert!(n >= 30, "≥30 demappers fit: {n}");
        // 30+ × 75 Msym/s × 4 bits ⇒ multi-Gbps (the paper's claim).
        assert!(n as f64 * 7.5e7 * 4.0 > 5e9);
        // The AE inference engine is DSP-limited to a single instance.
        let ae = ResourceUsage {
            lut: 9716,
            ff: 12780,
            dsp: 352,
            bram36: 18.5,
        };
        assert_eq!(d.max_instances(&ae, 1.0), 1);
        // Degenerate zero usage.
        assert_eq!(d.max_instances(&ResourceUsage::zero(), 0.8), 0);
    }
}
