//! Per-experiment accelerator configurations.
//!
//! [`AccelConfig`] selects which of the three techniques are present,
//! mirroring the BASE → LMA → LMA+IT → LMA+IT+IF progression of the paper's
//! Figure 11. A lifeguard additionally masks the configuration by its own
//! applicability row in Figure 2 (e.g. AddrCheck never uses IT); that
//! masking lives in `igm-lifeguards`. How a present unit behaves is the
//! lifeguard's to say, through its ETCT: the IT policy is
//! [`ItConfig::for_etct`](crate::ItConfig::for_etct).

use crate::filter::IfGeometry;
use std::fmt;

/// Default M-TLB capacity used in the simulation studies. Figure 14 sweeps
/// 16–256 entries; 64 captures most of the benefit for the flexible layout.
pub const DEFAULT_MTLB_ENTRIES: usize = 64;

/// Which accelerators a simulation run enables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Handlers translate through the M-TLB (`lma`) instead of the
    /// five-instruction software walk.
    pub lma: bool,
    /// M-TLB capacity in entries (only meaningful when `lma` is set).
    pub mtlb_entries: usize,
    /// Inheritance Tracking is present (its policy comes from the ETCT,
    /// see [`ItConfig::for_etct`](crate::ItConfig::for_etct)).
    pub it: bool,
    /// Idempotent Filter geometry, if enabled.
    pub if_geometry: Option<IfGeometry>,
}

impl Default for AccelConfig {
    fn default() -> AccelConfig {
        AccelConfig::baseline()
    }
}

impl AccelConfig {
    /// The unaccelerated LBA baseline.
    pub fn baseline() -> AccelConfig {
        AccelConfig { lma: false, mtlb_entries: DEFAULT_MTLB_ENTRIES, it: false, if_geometry: None }
    }

    /// LMA only.
    pub fn lma() -> AccelConfig {
        AccelConfig { lma: true, ..AccelConfig::baseline() }
    }

    /// LMA + Inheritance Tracking.
    pub fn lma_it() -> AccelConfig {
        AccelConfig { lma: true, it: true, ..AccelConfig::baseline() }
    }

    /// LMA + Idempotent Filter (the paper's simulated 32-entry filter).
    pub fn lma_if() -> AccelConfig {
        AccelConfig {
            lma: true,
            if_geometry: Some(IfGeometry::isca08()),
            ..AccelConfig::baseline()
        }
    }

    /// All three techniques.
    pub fn full() -> AccelConfig {
        AccelConfig { it: true, ..AccelConfig::lma_if() }
    }

    /// Short label for experiment tables (`BASE`, `LMA`, `LMA+IT`,
    /// `LMA+IF`, `LMA+IT+IF`).
    pub fn label(&self) -> String {
        if !self.lma && !self.it && self.if_geometry.is_none() {
            return "BASE".to_owned();
        }
        let mut parts = Vec::new();
        if self.lma {
            parts.push("LMA");
        }
        if self.it {
            parts.push("IT");
        }
        if self.if_geometry.is_some() {
            parts.push("IF");
        }
        parts.join("+")
    }
}

impl fmt::Display for AccelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure11_bars() {
        assert_eq!(AccelConfig::baseline().label(), "BASE");
        assert_eq!(AccelConfig::lma().label(), "LMA");
        assert_eq!(AccelConfig::lma_it().label(), "LMA+IT");
        assert_eq!(AccelConfig::lma_if().label(), "LMA+IF");
        assert_eq!(AccelConfig::full().label(), "LMA+IT+IF");
    }

    #[test]
    fn has_reports_enabled_techniques() {
        let c = AccelConfig::full();
        assert!(c.lma && c.it && c.if_geometry.is_some());
        let b = AccelConfig::baseline();
        assert!(!b.lma && !b.it && b.if_geometry.is_none());
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(AccelConfig::default(), AccelConfig::baseline());
    }
}
