//! Device resolution for the harness: the one place experiment code asks
//! "which device am I on".
//!
//! The paper evaluates on two machines — speedup figures on the GTX 680,
//! the Figure-1 dynamic-parallelism microbenchmark on the K20c — so the
//! default selection is *role-dependent*, not a single device. A
//! `--device` override pins every experiment to one resolved descriptor
//! (registry name or descriptor file, via [`np_gpu_sim::device::resolve`]).

use np_gpu_sim::{DeviceConfig, DeviceError};

/// The device the paper's speedup experiments ran on (Figures 10-16,
/// Table 1, Section 6, and the sweep).
pub fn default_speedup_device() -> DeviceConfig {
    DeviceConfig::gtx680()
}

/// The device the paper's dynamic-parallelism microbenchmark (Figure 1)
/// ran on.
pub fn default_dynpar_device() -> DeviceConfig {
    DeviceConfig::k20c()
}

/// Device selection for one harness invocation.
#[derive(Clone)]
pub enum DeviceSel {
    /// No `--device` flag: each experiment uses the device the paper used
    /// for it ([`default_speedup_device`] / [`default_dynpar_device`]).
    PaperDefaults,
    /// `--device SPEC`: every experiment runs on this one descriptor.
    Fixed(DeviceConfig),
}

impl DeviceSel {
    /// Parse an optional `--device` value into a selection.
    pub fn parse(spec: Option<&str>) -> Result<DeviceSel, DeviceError> {
        match spec {
            None => Ok(DeviceSel::PaperDefaults),
            Some(s) => np_gpu_sim::device::resolve(s).map(DeviceSel::Fixed),
        }
    }

    /// The device a speedup experiment (or the sweep) should run on.
    pub fn speedup(&self) -> DeviceConfig {
        match self {
            DeviceSel::PaperDefaults => default_speedup_device(),
            DeviceSel::Fixed(d) => d.clone(),
        }
    }

    /// The device the dynamic-parallelism microbenchmark should run on.
    pub fn dynpar(&self) -> DeviceConfig {
        match self {
            DeviceSel::PaperDefaults => default_dynpar_device(),
            DeviceSel::Fixed(d) => d.clone(),
        }
    }
}

/// Short filename token for one `--devices` entry: the basename with a
/// `.json` extension stripped, non-identifier characters mapped to `-`.
/// `gtx680` stays `gtx680`; `configs/myguy.json` becomes `myguy`.
pub fn device_token(spec: &str) -> String {
    let base = spec.rsplit(['/', '\\']).next().unwrap_or(spec);
    let base = base.strip_suffix(".json").unwrap_or(base);
    base.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
        .collect()
}

/// Insert a device token before a `.json` suffix:
/// `BENCH_results.json` + `k20c` → `BENCH_results.k20c.json`.
pub fn device_tagged_path(path: &str, token: &str) -> String {
    match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.{token}.json"),
        None => format!("{path}.{token}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_role_dependent() {
        let sel = DeviceSel::parse(None).unwrap();
        assert_eq!(sel.speedup().name, "GTX 680 (GK104, simulated)");
        assert_eq!(sel.dynpar().name, "Tesla K20c (GK110, simulated)");
    }

    #[test]
    fn fixed_selection_pins_both_roles() {
        let sel = DeviceSel::parse(Some("k20c")).unwrap();
        assert_eq!(sel.speedup().name, sel.dynpar().name);
        assert_eq!(sel.speedup().num_smx, 13);
        assert!(DeviceSel::parse(Some("titan")).is_err());
    }

    #[test]
    fn tokens_and_tagged_paths_compose() {
        assert_eq!(device_token("gtx680"), "gtx680");
        assert_eq!(device_token("configs/my guy.json"), "my-guy");
        assert_eq!(device_token("a\\b.json"), "b");
        assert_eq!(device_tagged_path("BENCH_results.json", "k20c"), "BENCH_results.k20c.json");
        assert_eq!(device_tagged_path("results", "k20c"), "results.k20c");
    }
}
