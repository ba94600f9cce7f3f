//! The unified execution knob shared by every coloring driver.

use crate::cap::BandwidthCap;
use crate::transport::TransportSpec;
use dcl_par::Backend;

/// Simulator execution configuration: which backend runs the drivers' local
/// computation, which bandwidth cap the model enforces, and which transport tier carries the
/// messages.
///
/// Every driver config (`CongestColoringConfig`, `DecompColoringConfig`,
/// `CliqueColoringConfig`, `DeltaColoringConfig`, the `mpc_color_*_with`
/// entry points) embeds one of these instead of ad-hoc `backend`/cap
/// fields, so a bandwidth sweep or a backend switch is the same one-liner
/// everywhere.
///
/// The struct is `#[non_exhaustive]`: build it with [`Default`] plus the
/// `with_*` setters (`ExecConfig::default().with_backend(...)
/// .with_cap(...)`), so future knobs are not semver breaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecConfig {
    /// Local-computation backend (rounds always run on the calling thread;
    /// results are bit-identical across backends, only wall-clock changes).
    pub backend: Backend,
    /// Per-message bandwidth cap override; `None` uses the model's default
    /// (`2·max(64, ⌈log₂ n⌉, ⌈log₂ C⌉)` bits in CONGEST, two words in the
    /// clique). Ignored by MPC, whose bandwidth role is played by the
    /// per-machine word budget `S`.
    pub cap: Option<BandwidthCap>,
    /// Transport tier carrying each round's messages (results are
    /// bit-identical across tiers; only the physical layer changes).
    pub transport: TransportSpec,
}

impl ExecConfig {
    /// Selects the local-computation backend (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the bandwidth cap (builder style).
    #[must_use]
    pub fn with_cap(mut self, cap: BandwidthCap) -> Self {
        self.cap = Some(cap);
        self
    }

    /// Sets or clears the cap override (builder style); `None` restores the
    /// model default.
    #[must_use]
    pub fn with_cap_opt(mut self, cap: Option<BandwidthCap>) -> Self {
        self.cap = cap;
        self
    }

    /// Selects the transport tier (builder style).
    #[must_use]
    pub fn with_transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// The cap to use: the override if set, else `default`.
    #[must_use]
    pub fn cap_or(&self, default: BandwidthCap) -> BandwidthCap {
        self.cap.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sequential_with_model_cap() {
        let exec = ExecConfig::default();
        assert_eq!(exec.backend, Backend::Sequential);
        assert_eq!(exec.cap, None);
        assert_eq!(exec.transport, TransportSpec::Local);
        assert_eq!(exec.cap_or(BandwidthCap::new(99)).bits(), 99);
    }

    #[test]
    fn transport_knob_composes_with_the_others() {
        let exec = ExecConfig::default()
            .with_transport(TransportSpec::Tcp)
            .with_backend(Backend::Parallel(2))
            .with_cap(BandwidthCap::new(16));
        assert_eq!(exec.transport, TransportSpec::Tcp);
        assert_eq!(exec.backend, Backend::Parallel(2));
        assert_eq!(exec.cap, Some(BandwidthCap::new(16)));
    }

    #[test]
    fn builders_set_one_knob_each() {
        assert_eq!(
            ExecConfig::default()
                .with_backend(Backend::Parallel(2))
                .backend,
            Backend::Parallel(2)
        );
        let exec = ExecConfig::default().with_cap(BandwidthCap::new(16));
        assert_eq!(exec.cap_or(BandwidthCap::new(99)).bits(), 16);
        assert_eq!(exec.backend, Backend::Sequential);
        let cleared = exec.with_cap_opt(None);
        assert_eq!(cleared.cap, None);
        assert_eq!(
            exec.with_cap_opt(Some(BandwidthCap::new(7))).cap,
            Some(BandwidthCap::new(7))
        );
    }

    #[test]
    fn setters_chain_without_clobbering_each_other() {
        let exec = ExecConfig::default()
            .with_backend(Backend::Parallel(4))
            .with_cap(BandwidthCap::new(32));
        assert_eq!(exec.backend, Backend::Parallel(4));
        assert_eq!(exec.cap, Some(BandwidthCap::new(32)));
    }
}
