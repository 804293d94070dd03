//! The deterministic fault layer: its knobs, their validation and its
//! run-time state in one place.
//!
//! [`FaultConfig`] (with the window, region, partition and slow-link types
//! it is built from) is what a run configuration sets;
//! [`FaultConfig::validate`] rejects out-of-range values at
//! [`crate::RunConfig::validate`]; [`FaultState`] is what the send path
//! (`scheme::dispatch_msg`) consults per message — the configuration's
//! own predicates behind an arming guard, plus the per-sender streams and
//! the intervention counters.

use rand::Rng;

use dup_overlay::NodeId;
use dup_sim::SenderStreams;

/// A half-open window of simulated time `[start_secs, end_secs)` during
/// which fault injection is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (simulated seconds).
    pub start_secs: f64,
    /// Window end (simulated seconds, exclusive).
    pub end_secs: f64,
}

impl FaultWindow {
    /// True when `at_secs` falls inside the window.
    pub fn contains(&self, at_secs: f64) -> bool {
        at_secs >= self.start_secs && at_secs < self.end_secs
    }
}

/// A contiguous half-open range of node indices `[lo, hi)` — the unit in
/// which scenario faults scope themselves to a *region* of the node space.
/// A range holds first lives only: a node churn brings in is a fresh
/// identity outside every range, also when it reuses a slot inside one.
/// Node indices are dense, so a contiguous range is also how the
/// space-parallel `ShardMap` partitions nodes, keeping regional faults
/// meaningful under space sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// First node index in the range.
    pub lo: u32,
    /// One past the last node index in the range.
    pub hi: u32,
}

impl NodeRange {
    /// True when `node` falls inside the range.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        (self.lo..self.hi).contains(&node.0)
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// True when the range covers nothing.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// A scripted network partition: during `window`, every message crossing
/// the boundary of `region` — in **either** direction — is dropped. The
/// cut is symmetric by construction (`inside(from) != inside(to)`), and
/// purely deterministic: deciding a message's fate draws nothing from any
/// RNG stream, so adding partitions to a config never perturbs the other
/// seeded streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// When the cut is in force.
    pub window: FaultWindow,
    /// The partitioned-off node region; traffic wholly inside or wholly
    /// outside it is unaffected.
    pub region: NodeRange,
}

impl PartitionWindow {
    /// True when a message from `from` to `to` at `at_secs` crosses the
    /// active cut. Symmetric in `from`/`to` by construction.
    #[inline]
    fn cuts(&self, from: NodeId, to: NodeId, at_secs: f64) -> bool {
        self.window.contains(at_secs) && (self.region.contains(from) != self.region.contains(to))
    }
}

/// A slow directed link class: hops from a node in `from` to a node in
/// `to` stretch their exponential latency *tail* by `mult` (≥ 1). The
/// latency floor — the space-parallel lookahead — is never scaled, so a
/// conservative engine's causality window stays valid however slow the
/// link. Directionality models asymmetric links: configure only one
/// direction to slow it alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowLink {
    /// Sender-side region.
    pub from: NodeRange,
    /// Receiver-side region.
    pub to: NodeRange,
    /// Tail multiplier, at least 1.
    pub mult: f64,
}

/// Deterministic fault-injection configuration (disabled by default).
///
/// When enabled, every message passing through the delivery path draws its
/// fate from its sender's stream of a dedicated family
/// (`SenderStreams::new(seed, "faults")`): it
/// may be dropped, duplicated, or held back by an extra delay. Extra delays
/// are applied *before* the per-channel FIFO reservation, so channels stay
/// FIFO (as over TCP) — faults reorder traffic across channels, never
/// within one. `churn_boost` scales the churn rate inside the windows,
/// scripting bursts of topology change.
///
/// With the default configuration the fault layer draws **nothing** from
/// any RNG stream and changes no behavior, so the determinism goldens in
/// `tests/perf_determinism.rs` are unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is silently dropped in transit.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub duplicate_p: f64,
    /// Probability a message is held back by an extra uniform delay.
    pub delay_p: f64,
    /// Upper bound of the extra delay (simulated seconds).
    pub max_extra_delay_secs: f64,
    /// Multiplier applied to the churn rate while a window is active
    /// (`1.0` = no boost); scripts churn bursts.
    pub churn_boost: f64,
    /// Windows during which faults apply. Empty (the default) means the
    /// whole run — but with all probabilities at zero and `churn_boost` at
    /// one, the layer is inert either way.
    pub windows: Vec<FaultWindow>,
    /// Scripted partitions: windows during which messages crossing a node
    /// region's boundary are deterministically dropped (zero RNG draws).
    pub partitions: Vec<PartitionWindow>,
    /// Slow/asymmetric link classes: directed region-to-region hop-latency
    /// tail multipliers (zero RNG *extra* draws — the one latency variate
    /// per hop is scaled, never re-drawn).
    pub slow_links: Vec<SlowLink>,
    /// When set, churn victim/anchor selection is confined to this node
    /// region — correlated regional churn. The root and out-of-region
    /// nodes are never picked. `None` (the default) keeps churn global.
    pub churn_region: Option<NodeRange>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            max_extra_delay_secs: 0.0,
            churn_boost: 1.0,
            windows: Vec::new(),
            partitions: Vec::new(),
            slow_links: Vec::new(),
            churn_region: None,
        }
    }
}

impl FaultConfig {
    /// True when this configuration can affect a run at all. The runner
    /// skips every fault check (and every RNG draw) when false.
    pub fn is_enabled(&self) -> bool {
        self.has_random_faults()
            || self.churn_boost != 1.0
            || !self.partitions.is_empty()
            || !self.slow_links.is_empty()
            || self.churn_region.is_some()
    }

    /// True when any *probabilistic* fault is configured — the only paths
    /// that draw from the fault RNG streams. Partitions, slow links, and
    /// scoped churn are deterministic (or reuse an existing draw) and are
    /// deliberately excluded, so a scenario built purely from them still
    /// draws nothing from the per-sender fault streams.
    pub fn has_random_faults(&self) -> bool {
        self.drop_p > 0.0 || self.duplicate_p > 0.0 || self.delay_p > 0.0
    }

    /// True when faults apply at `at_secs`: inside any window, or always
    /// when no windows are configured.
    fn active_at(&self, at_secs: f64) -> bool {
        self.windows.is_empty() || self.windows.iter().any(|w| w.contains(at_secs))
    }

    /// True when a message from `from` to `to` at `at_secs` crosses any
    /// active partition cut. Deterministic — no RNG involved — and
    /// symmetric in `from`/`to`.
    #[inline]
    pub fn partition_cuts(&self, from: NodeId, to: NodeId, at_secs: f64) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, at_secs))
    }

    /// The hop-latency tail multiplier for a message from `from` to `to`:
    /// the largest matching [`SlowLink`] multiplier, or `1.0` when none
    /// matches (the common fast path).
    #[inline]
    pub fn link_mult(&self, from: NodeId, to: NodeId) -> f64 {
        let mut mult = 1.0;
        for l in &self.slow_links {
            if l.from.contains(from) && l.to.contains(to) && l.mult > mult {
                mult = l.mult;
            }
        }
        mult
    }

    /// Validates parameter ranges against a run over `nodes` initial nodes
    /// (called by [`crate::RunConfig::validate`]).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters, with a description.
    pub(crate) fn validate(&self, nodes: usize) {
        for (name, p) in [
            ("drop", self.drop_p),
            ("duplicate", self.duplicate_p),
            ("delay", self.delay_p),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "fault {name} probability must be in [0,1]"
            );
        }
        assert!(
            self.drop_p + self.duplicate_p + self.delay_p <= 1.0,
            "fault probabilities must sum to at most 1"
        );
        assert!(
            self.max_extra_delay_secs >= 0.0 && self.max_extra_delay_secs.is_finite(),
            "fault extra delay must be non-negative and finite"
        );
        assert!(
            self.delay_p == 0.0 || self.max_extra_delay_secs > 0.0,
            "fault delay probability needs a positive max extra delay"
        );
        assert!(
            self.churn_boost > 0.0 && self.churn_boost.is_finite(),
            "fault churn boost must be positive and finite"
        );
        for w in &self.windows {
            assert!(
                w.start_secs >= 0.0 && w.end_secs > w.start_secs,
                "fault window must satisfy 0 <= start < end"
            );
        }
        for p in &self.partitions {
            assert!(
                p.window.start_secs >= 0.0 && p.window.end_secs > p.window.start_secs,
                "partition window must satisfy 0 <= start < end"
            );
            assert!(
                !p.region.is_empty(),
                "partition region must be a non-empty node range"
            );
        }
        for l in &self.slow_links {
            assert!(
                !l.from.is_empty() && !l.to.is_empty(),
                "slow-link regions must be non-empty node ranges"
            );
            assert!(
                l.mult >= 1.0 && l.mult.is_finite(),
                "slow-link multiplier must be >= 1 and finite (the latency \
                 floor is the parallel lookahead and cannot shrink)"
            );
        }
        if let Some(region) = &self.churn_region {
            assert!(
                !region.is_empty(),
                "churn region must be a non-empty node range"
            );
            assert!(
                (region.lo as usize) < nodes,
                "churn region must overlap the initial node space"
            );
        }
    }
}

/// Counters of fault-layer interventions over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped in transit.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back by an extra delay.
    pub delayed: u64,
    /// Messages dropped because they crossed an active partition cut
    /// (deterministic; not counted in `dropped`).
    pub partitioned: u64,
}

impl FaultStats {
    /// Total interventions.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.partitioned
    }
}

/// What the fault layer decided for one message.
pub(crate) enum FaultAction {
    /// Deliver normally.
    Pass,
    /// Lose the message.
    Drop,
    /// Deliver a second copy.
    Duplicate,
    /// Add the given extra transit delay (seconds).
    Delay(f64),
}

/// Runtime state of the deterministic fault layer carried by
/// [`crate::World`].
///
/// Built from [`FaultConfig`] with its own family of per-sender streams
/// (`SenderStreams::new(seed, "faults")`), so enabling faults
/// perturbs no other stream — and when the config is disabled (the
/// default) the layer draws nothing at all, keeping fault-free runs
/// bit-identical to builds without the layer. Keying the streams by
/// sender makes each node's fault fate a function of its own send order
/// only, which is what lets a space-partitioned run reproduce the
/// sequential run's decisions shard-locally.
#[derive(Debug)]
pub struct FaultState {
    cfg: FaultConfig,
    streams: SenderStreams,
    armed: bool,
    stats: FaultStats,
}

impl FaultState {
    /// An inert fault layer (the default for tests and plain runs).
    pub fn disabled() -> Self {
        FaultState::from_config(FaultConfig::default(), 0)
    }

    /// Builds the layer from a run's fault configuration and the master
    /// seed its per-sender streams derive from.
    pub fn from_config(cfg: FaultConfig, seed: u64) -> Self {
        let armed = cfg.is_enabled();
        FaultState {
            cfg,
            streams: SenderStreams::new(seed, "faults"),
            armed,
            stats: FaultStats::default(),
        }
    }

    /// True when the layer can still intervene.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Permanently disarms the layer (used by the post-run settle phase so
    /// healing traffic flows fault-free).
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Intervention counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Starts the fault stream of `node`, a new life of a reused slot,
    /// afresh (its draw counter back to zero, under its own id), so its
    /// fate depends on its own sends only. Draws nothing.
    pub(crate) fn renew(&mut self, node: NodeId) {
        self.streams.restart(node.index());
    }

    /// The factor to multiply the churn rate by at `at_secs` (scripted
    /// churn bursts; 1.0 outside windows or when disarmed).
    pub fn churn_rate_factor(&self, at_secs: f64) -> f64 {
        if self.armed && self.cfg.active_at(at_secs) {
            self.cfg.churn_boost
        } else {
            1.0
        }
    }

    /// The hop-latency tail multiplier for a `from → to` hop:
    /// [`FaultConfig::link_mult`] while armed, `1.0` once disarmed. Purely
    /// a lookup — no RNG involved — and `1.0` keeps the latency sample
    /// bit-identical to the unscaled model.
    #[inline]
    pub fn link_mult(&self, from: NodeId, to: NodeId) -> f64 {
        if self.armed {
            self.cfg.link_mult(from, to)
        } else {
            1.0
        }
    }

    /// Decides the fate of one message sent `from → to` at `at_secs`. Only
    /// called while armed. Partition cuts come first and are purely
    /// deterministic: a message crossing an active cut is lost without
    /// touching any RNG stream, so a layer armed purely by partitions, slow
    /// links or scoped churn never draws. Otherwise, inside a fault window,
    /// one uniform from the sender's stream (two for a delay) picks among
    /// the probabilistic faults.
    pub(crate) fn intercept(&mut self, from: NodeId, to: NodeId, at_secs: f64) -> FaultAction {
        if self.cfg.partition_cuts(from, to, at_secs) {
            self.stats.partitioned += 1;
            return FaultAction::Drop;
        }
        if !self.cfg.has_random_faults() || !self.cfg.active_at(at_secs) {
            return FaultAction::Pass;
        }
        let mut rng = self.streams.rng_of(from.index(), u64::from(from.0));
        let u: f64 = rng.gen();
        if u < self.cfg.drop_p {
            self.stats.dropped += 1;
            FaultAction::Drop
        } else if u < self.cfg.drop_p + self.cfg.duplicate_p {
            self.stats.duplicated += 1;
            FaultAction::Duplicate
        } else if u < self.cfg.drop_p + self.cfg.duplicate_p + self.cfg.delay_p {
            self.stats.delayed += 1;
            let v: f64 = rng.gen();
            FaultAction::Delay(v * self.cfg.max_extra_delay_secs)
        } else {
            FaultAction::Pass
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;
    use crate::ledger::MsgClass;
    use crate::scheme::{send_msg, Ev, Msg, World};
    use dup_overlay::regular_search_tree;
    use dup_sim::{Engine, SimTime};
    use dup_workload::ZipfPhase;

    #[test]
    fn fault_config_defaults_off() {
        let d = FaultConfig::default();
        assert!(!d.is_enabled());
        assert!(!d.has_random_faults());
        assert!(d.active_at(0.0), "no windows means always in-window");
        assert_eq!(RunConfig::quick(1).faults, d);
    }

    #[test]
    fn fault_windows_gate_activity() {
        let f = FaultConfig {
            drop_p: 0.1,
            windows: vec![
                FaultWindow {
                    start_secs: 100.0,
                    end_secs: 200.0,
                },
                FaultWindow {
                    start_secs: 500.0,
                    end_secs: 600.0,
                },
            ],
            ..FaultConfig::default()
        };
        assert!(f.is_enabled());
        assert!(!f.active_at(99.9));
        assert!(f.active_at(100.0));
        assert!(f.active_at(199.9));
        assert!(!f.active_at(200.0), "windows are half-open");
        assert!(f.active_at(550.0));
        assert!(!f.active_at(1000.0));
    }

    #[test]
    #[should_panic(expected = "fault drop probability")]
    fn out_of_range_fault_probability_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.drop_p = 1.5;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn fault_probabilities_must_partition() {
        let mut c = RunConfig::quick(0);
        c.faults.drop_p = 0.6;
        c.faults.duplicate_p = 0.6;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "fault window")]
    fn inverted_fault_window_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.windows.push(FaultWindow {
            start_secs: 10.0,
            end_secs: 5.0,
        });
        c.validate();
    }

    #[test]
    fn builder_sets_faults() {
        let cfg = RunConfig::builder(0)
            .faults(FaultConfig {
                drop_p: 0.05,
                duplicate_p: 0.02,
                delay_p: 0.1,
                max_extra_delay_secs: 2.0,
                churn_boost: 4.0,
                windows: vec![FaultWindow {
                    start_secs: 0.0,
                    end_secs: 1000.0,
                }],
                ..FaultConfig::default()
            })
            .build();
        assert!(cfg.faults.is_enabled());
        assert_eq!(cfg.faults.windows.len(), 1);
    }

    #[test]
    fn scenario_fields_default_off() {
        let d = FaultConfig::default();
        assert!(d.partitions.is_empty() && d.slow_links.is_empty());
        assert_eq!(d.churn_region, None);
        assert!(RunConfig::quick(1).zipf_phases.is_empty(), "constant θ");
    }

    #[test]
    fn partition_cut_is_symmetric_and_windowed() {
        let f = FaultConfig {
            partitions: vec![PartitionWindow {
                window: FaultWindow {
                    start_secs: 100.0,
                    end_secs: 200.0,
                },
                region: NodeRange { lo: 4, hi: 8 },
            }],
            ..FaultConfig::default()
        };
        assert!(f.is_enabled(), "partitions arm the fault layer");
        assert!(!f.has_random_faults(), "partitions draw no RNG");
        let inside = NodeId(5);
        let outside = NodeId(1);
        assert!(f.partition_cuts(inside, outside, 150.0));
        assert!(f.partition_cuts(outside, inside, 150.0), "cut is symmetric");
        assert!(
            !f.partition_cuts(inside, NodeId(6), 150.0),
            "intra-region ok"
        );
        assert!(
            !f.partition_cuts(outside, NodeId(2), 150.0),
            "extra-region ok"
        );
        assert!(
            !f.partition_cuts(inside, outside, 99.9),
            "before the window"
        );
        assert!(
            !f.partition_cuts(inside, outside, 200.0),
            "half-open window"
        );
    }

    #[test]
    fn link_mult_takes_the_largest_directed_match() {
        let f = FaultConfig {
            slow_links: vec![
                SlowLink {
                    from: NodeRange { lo: 0, hi: 4 },
                    to: NodeRange { lo: 4, hi: 8 },
                    mult: 3.0,
                },
                SlowLink {
                    from: NodeRange { lo: 0, hi: 8 },
                    to: NodeRange { lo: 4, hi: 8 },
                    mult: 5.0,
                },
            ],
            ..FaultConfig::default()
        };
        assert_eq!(f.link_mult(NodeId(1), NodeId(5)), 5.0, "max of matches");
        assert_eq!(f.link_mult(NodeId(5), NodeId(1)), 1.0, "asymmetric");
        assert_eq!(f.link_mult(NodeId(5), NodeId(6)), 5.0);
        assert_eq!(FaultConfig::default().link_mult(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    #[should_panic(expected = "slow-link multiplier")]
    fn sub_unity_link_mult_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.slow_links.push(SlowLink {
            from: NodeRange { lo: 0, hi: 4 },
            to: NodeRange { lo: 4, hi: 8 },
            mult: 0.5,
        });
        c.validate();
    }

    #[test]
    #[should_panic(expected = "partition region")]
    fn empty_partition_region_rejected() {
        let mut c = RunConfig::quick(0);
        c.faults.partitions.push(PartitionWindow {
            window: FaultWindow {
                start_secs: 0.0,
                end_secs: 10.0,
            },
            region: NodeRange { lo: 4, hi: 4 },
        });
        c.validate();
    }

    #[test]
    fn builder_sets_zipf_phases_and_churn_region() {
        let cfg = RunConfig::builder(0)
            .zipf_phases(vec![ZipfPhase {
                start_secs: 500.0,
                theta: 3.0,
            }])
            .faults(FaultConfig {
                churn_region: Some(NodeRange { lo: 8, hi: 64 }),
                ..FaultConfig::default()
            })
            .build();
        assert_eq!(cfg.zipf_phases.len(), 1);
        assert!(cfg.faults.is_enabled(), "a churn region arms the layer");
        assert!(!cfg.faults.has_random_faults());
    }

    fn world() -> World {
        let mut w = World::new(regular_search_tree(4, 3));
        w.metrics.start_recording();
        w.latency_rng = SenderStreams::new(1, "scheme-test");
        w
    }

    fn armed_faults(cfg: FaultConfig) -> FaultState {
        FaultState::from_config(cfg, 77)
    }

    #[test]
    fn fault_drop_loses_messages_but_charges_hops() {
        let mut w = world();
        w.faults = armed_faults(FaultConfig {
            drop_p: 1.0,
            ..FaultConfig::default()
        });
        let mut engine: Engine<Ev<u32>> = Engine::new();
        for i in 0..10u32 {
            send_msg(
                &mut w,
                &mut engine,
                NodeId(1),
                NodeId(0),
                MsgClass::Control,
                Msg::Scheme(i),
            );
        }
        let mut delivered = 0u32;
        engine.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0, "drop_p=1 must lose every message");
        assert_eq!(w.faults.stats().dropped, 10);
        assert_eq!(
            w.metrics.ledger().hops(MsgClass::Control),
            10,
            "dropped sends still cost the sender a hop"
        );
    }

    #[test]
    fn fault_duplicate_delivers_twice_in_order() {
        let mut w = world();
        w.faults = armed_faults(FaultConfig {
            duplicate_p: 1.0,
            ..FaultConfig::default()
        });
        let mut engine: Engine<Ev<u32>> = Engine::new();
        for i in 0..20u32 {
            send_msg(
                &mut w,
                &mut engine,
                NodeId(1),
                NodeId(0),
                MsgClass::Push,
                Msg::Scheme(i),
            );
        }
        let mut received = Vec::new();
        engine.run(|_, ev| {
            if let Ev::Deliver {
                msg: Msg::Scheme(i),
                ..
            } = ev
            {
                received.push(i);
            }
        });
        let expected: Vec<u32> = (0..20).flat_map(|i| [i, i]).collect();
        assert_eq!(received, expected, "each copy follows its original, FIFO");
        assert_eq!(w.faults.stats().duplicated, 20);
    }

    #[test]
    fn fault_delay_keeps_channels_fifo() {
        let mut w = world();
        w.faults = armed_faults(FaultConfig {
            delay_p: 0.5,
            max_extra_delay_secs: 50.0,
            ..FaultConfig::default()
        });
        let mut engine: Engine<Ev<u32>> = Engine::new();
        for i in 0..100u32 {
            send_msg(
                &mut w,
                &mut engine,
                NodeId(1),
                NodeId(0),
                MsgClass::Control,
                Msg::Scheme(i),
            );
        }
        let mut received = Vec::new();
        engine.run(|_, ev| {
            if let Ev::Deliver {
                msg: Msg::Scheme(i),
                ..
            } = ev
            {
                received.push(i);
            }
        });
        assert_eq!(
            received,
            (0..100).collect::<Vec<_>>(),
            "extra delays must not reorder a single channel"
        );
        assert!(w.faults.stats().delayed > 0);
    }

    #[test]
    fn fault_windows_scope_interventions() {
        let mut w = world();
        w.faults = armed_faults(FaultConfig {
            drop_p: 1.0,
            windows: vec![FaultWindow {
                start_secs: 10.0,
                end_secs: 20.0,
            }],
            ..FaultConfig::default()
        });
        let mut engine: Engine<Ev<u32>> = Engine::new();
        // At t=0 (outside the window) the message passes.
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Control,
            Msg::Scheme(0),
        );
        let mut delivered = 0u32;
        engine.run(|_, _| delivered += 1);
        assert_eq!(delivered, 1);
        assert_eq!(w.faults.stats().dropped, 0);
        // Inside the window the same config drops.
        engine.schedule(SimTime::from_secs(15), Ev::NextQuery);
        let mut sent_in_window = false;
        engine.run(|eng, ev| {
            if matches!(ev, Ev::NextQuery) && !sent_in_window {
                sent_in_window = true;
                send_msg(
                    &mut w,
                    eng,
                    NodeId(1),
                    NodeId(0),
                    MsgClass::Control,
                    Msg::Scheme(1),
                );
            } else {
                delivered += 1;
            }
        });
        assert_eq!(delivered, 1, "in-window message must be dropped");
        assert_eq!(w.faults.stats().dropped, 1);
    }

    #[test]
    fn disarmed_faults_draw_nothing() {
        // The disabled layer must consume zero RNG draws: none of its
        // per-sender streams ever advances, protecting every determinism
        // golden.
        let mut w = world();
        let mut engine: Engine<Ev<u32>> = Engine::new();
        send_msg(
            &mut w,
            &mut engine,
            NodeId(1),
            NodeId(0),
            MsgClass::Control,
            Msg::Scheme(0),
        );
        assert!(w.latency_rng.draws() > 0, "the send drew no latency");
        assert_eq!(
            w.faults.streams.draws(),
            0,
            "disabled fault layer drew from a stream"
        );
        assert_eq!(w.faults.stats(), FaultStats::default());
    }
}
