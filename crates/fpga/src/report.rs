//! Implementation reports — Table-2-shaped summaries of a design.

use crate::resources::ResourceUsage;

/// One row of the hardware comparison table.
#[derive(Clone, Debug)]
pub struct ImplReport {
    /// Design name.
    pub name: String,
    /// Fabric clock in MHz.
    pub(crate) clock_mhz: f64,
    /// First-symbol latency in seconds.
    pub latency_s: f64,
    /// Steady-state throughput in symbols per second.
    pub throughput_sym_s: f64,
    /// Resource utilisation.
    pub usage: ResourceUsage,
    /// Total power in watts.
    pub power_w: f64,
    /// Energy per symbol in joules.
    pub(crate) energy_per_sym_j: f64,
}

hybridem_mathkit::impl_json!(ImplReport {
    name,
    clock_mhz,
    latency_s,
    throughput_sym_s,
    usage,
    power_w,
    energy_per_sym_j,
});

impl ImplReport {
    /// Renders several reports as a Markdown table with the paper's
    /// Table 2 column order.
    pub fn markdown_table(rows: &[ImplReport]) -> String {
        let mut s = String::new();
        s.push_str(
            "| Design | Latency [s] | Throughput [sym/s] | BRAM | DSP | FF | LUT | Power [W] | Energy [J/sym] |\n",
        );
        s.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for r in rows {
            s.push_str(&format!(
                "| {} | {:.3e} | {:.3e} | {} | {} | {} | {} | {:.3e} | {:.3e} |\n",
                r.name,
                r.latency_s,
                r.throughput_sym_s,
                r.usage.bram36,
                r.usage.dsp,
                r.usage.ff,
                r.usage.lut,
                r.power_w,
                r.energy_per_sym_j,
            ));
        }
        s
    }

    /// Ratio of another design's value to this one, per metric —
    /// convenient for "N× better" claims.
    pub fn ratios_vs(&self, other: &ImplReport) -> Ratios {
        Ratios {
            throughput: self.throughput_sym_s / other.throughput_sym_s,
            dsp: other.usage.dsp as f64 / self.usage.dsp.max(1) as f64,
            lut: other.usage.lut as f64 / self.usage.lut.max(1) as f64,
            power: other.power_w / self.power_w,
            energy: other.energy_per_sym_j / self.energy_per_sym_j,
        }
    }
}

/// Metric ratios between two designs (value of the *other* design
/// divided by this one; >1 means this design wins).
#[derive(Clone, Copy, Debug)]
pub struct Ratios {
    /// Throughput ratio (this over other).
    pub throughput: f64,
    /// DSP ratio.
    pub dsp: f64,
    /// LUT ratio.
    pub lut: f64,
    /// Power ratio.
    pub power: f64,
    /// Energy ratio.
    pub energy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(name: &str, dsp: u64, lut: u64, power: f64, thr: f64) -> ImplReport {
        ImplReport {
            name: name.to_string(),
            clock_mhz: 150.0,
            latency_s: 5e-8,
            throughput_sym_s: thr,
            usage: ResourceUsage {
                lut,
                ff: lut,
                dsp,
                bram36: 0.0,
            },
            power_w: power,
            energy_per_sym_j: power / thr,
        }
    }

    #[test]
    fn markdown_has_all_columns_and_rows() {
        let rows = vec![
            report("hybrid", 1, 1100, 0.055, 7.5e7),
            report("ae", 352, 11000, 0.45, 1.2e7),
        ];
        let md = ImplReport::markdown_table(&rows);
        assert!(md.contains("| Design |"));
        assert!(md.contains("hybrid"));
        assert!(md.contains("ae"));
        assert_eq!(md.lines().count(), 4);
        assert!(md.contains("Energy [J/sym]"));
    }

    #[test]
    fn ratios() {
        let hybrid = report("hybrid", 1, 1100, 0.055, 7.5e7);
        let ae = report("ae", 352, 11000, 0.45, 1.2e7);
        let r = hybrid.ratios_vs(&ae);
        assert_eq!(r.dsp, 352.0);
        assert!((r.lut - 10.0).abs() < 1e-9);
        assert!(r.power > 8.0);
        assert!(r.throughput > 6.0);
        assert!(r.energy > 40.0, "energy ratio {}", r.energy);
    }
}
