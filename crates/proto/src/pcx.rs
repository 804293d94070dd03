//! PCX — Path Caching with eXpiration.
//!
//! The purely passive baseline: indices are cached by every node a reply
//! passes through and die when their TTL expires. No pushes, no interest
//! registration, no maintenance traffic. All of that behavior lives in the
//! shared runner; PCX adds nothing on top.

use crate::scheme::Scheme;

/// The PCX scheme: an empty implementation of every hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcxScheme;

impl PcxScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        PcxScheme
    }
}

/// PCX sends no scheme messages; this uninhabitable type documents that at
/// the type level. It is serializable (no encoding exists, every decode
/// fails) so `Msg<NoMsg>` can travel through the live codec.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub enum NoMsg {}

impl Scheme for PcxScheme {
    type Msg = NoMsg;

    fn name(&self) -> &'static str {
        "PCX"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::runner::run_simulation;

    #[test]
    fn pcx_serves_stale_copies() {
        // With a long measured window spanning several TTL refreshes, PCX
        // must serve some superseded versions (cached copies outlive the
        // refresh by up to push_lead seconds).
        let mut cfg = RunConfig::quick(11);
        cfg.duration_secs = 30_000.0;
        let report = run_simulation(&cfg, PcxScheme::new());
        assert!(report.stale_fraction > 0.0, "no stale serves observed");
        assert_eq!(report.push_hops, 0);
        assert_eq!(report.control_hops, 0);
    }
}
