//! Per-experiment accelerator configurations.
//!
//! [`AccelConfig`] says which of the three units are present, mirroring the
//! BASE → LMA → LMA+IT → LMA+IT+IF progression of the paper's Figure 11.
//! The units' sizes are the paper's design points: a
//! [`DEFAULT_MTLB_ENTRIES`]-entry M-TLB and the 32-entry fully associative
//! filter of [`IfGeometry::isca08`](crate::IfGeometry::isca08); only the
//! Figure 13 and 14 sweeps (`igm-sim`) vary them. A lifeguard additionally
//! masks the configuration by its own applicability row in Figure 2 (e.g.
//! AddrCheck never uses IT), which is an `AccelConfig` too; that masking
//! lives in `igm-lifeguards`. How a present unit behaves is the
//! lifeguard's to say, through its ETCT: the IT policy is
//! [`ItConfig::for_etct`](crate::ItConfig::for_etct).

use std::fmt;

/// The M-TLB capacity of every accelerated run. Figure 14 sweeps 16–256
/// entries; 64 captures most of the benefit for the flexible layout.
pub const DEFAULT_MTLB_ENTRIES: usize = 64;

/// Which accelerators a run enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccelConfig {
    /// Handlers translate through the M-TLB (`lma`) instead of the
    /// five-instruction software walk.
    pub lma: bool,
    /// Inheritance Tracking is present (its policy comes from the ETCT,
    /// see [`ItConfig::for_etct`](crate::ItConfig::for_etct)).
    pub it: bool,
    /// The Idempotent Filter is present.
    pub idempotent_filter: bool,
}

impl Default for AccelConfig {
    fn default() -> AccelConfig {
        AccelConfig::baseline()
    }
}

impl AccelConfig {
    /// The unaccelerated LBA baseline.
    pub fn baseline() -> AccelConfig {
        AccelConfig { lma: false, it: false, idempotent_filter: false }
    }

    /// LMA only.
    pub fn lma() -> AccelConfig {
        AccelConfig { lma: true, ..AccelConfig::baseline() }
    }

    /// LMA + Inheritance Tracking.
    pub fn lma_it() -> AccelConfig {
        AccelConfig { lma: true, it: true, ..AccelConfig::baseline() }
    }

    /// LMA + Idempotent Filter.
    pub fn lma_if() -> AccelConfig {
        AccelConfig { lma: true, idempotent_filter: true, ..AccelConfig::baseline() }
    }

    /// All three techniques.
    pub fn full() -> AccelConfig {
        AccelConfig { lma: true, it: true, idempotent_filter: true }
    }

    /// Short label for experiment tables (`BASE`, `LMA`, `LMA+IT`,
    /// `LMA+IF`, `LMA+IT+IF`).
    pub fn label(&self) -> String {
        let parts: Vec<&str> = [(self.lma, "LMA"), (self.it, "IT"), (self.idempotent_filter, "IF")]
            .into_iter()
            .filter_map(|(on, name)| on.then_some(name))
            .collect();
        if parts.is_empty() {
            "BASE".to_owned()
        } else {
            parts.join("+")
        }
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
        assert!(c.lma && c.it && c.idempotent_filter);
        let b = AccelConfig::baseline();
        assert!(!b.lma && !b.it && !b.idempotent_filter);
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(AccelConfig::default(), AccelConfig::baseline());
    }
}
