//! Receiver-driven encoding rate adaptation (§III-B, Eqs. 7–11).
//!
//! The player watches its playout buffer. With segment size τ and
//! buffered bytes `s(t_k)` estimated by Eq. 7,
//!
//! ```text
//! s(t_k) = s(t_{k−1}) + (t_k − t_{k−1})·(d(t_k) − b_p(t_k))
//! r      = s(t_k) / τ                                   (Eq. 8)
//! ```
//!
//! the controller adjusts the *encoding* quality the supernode uses:
//!
//! * up one level when `r > (1 + β)/ρ` (Eqs. 9–10) — there is enough
//!   buffered video that even the bigger segments of the next level
//!   keep playback continuous;
//! * down one level when `r < θ/ρ` (Eq. 11) — congestion is eating
//!   the buffer, sacrifice quality for continuity.
//!
//! ρ is the game's latency tolerance: latency-sensitive games (small
//! ρ) need a *larger* buffer before risking an up-switch and bail out
//! to lower quality *earlier* — both thresholds divide by ρ.
//!
//! To avoid oscillation the paper requires the condition to hold for
//! several consecutive estimations; [`RateController`] implements that
//! with a run counter.
//!
//! ## Beyond the paper: the stable up-probe
//!
//! Eq. 9's up-switch needs the buffer to *grow*, i.e. download faster
//! than real time — but a cloud-gaming source generates video in real
//! time, so after a congestion episode ends a stream can be healthy
//! forever (d ≈ 1, r ≈ 1) without ever banking the surplus the rule
//! demands, and quality never recovers. The opt-in
//! [`RateController::with_up_probe`] extension fixes that: after `n`
//! consecutive estimations inside the stable band with r ≥ 1, the
//! controller probes one level up; if the probe overloads the path,
//! the ordinary down rule pulls it back within a window.

//! ## The adaptation-policy arena
//!
//! The paper's controller is one point in a wide design space:
//! foveated streaming allocates bitrate by gaze region, Stimpack-style
//! systems degrade encode quality from *server* load rather than
//! client buffer, and plain bandwidth-EWMA adaptation predates both.
//! [`StreamPolicy`] is one enum over those contestants, stored inline
//! in each player record: every variant consumes the same
//! [`PolicyInputs`] snapshot (buffer-rate sample, measured download
//! rate, per-segment region weight, host supernode load) plus a
//! deterministic [`Rng`], and returns the same
//! `(RateDecision, AdaptExplain)` pair. The paper's controller is the
//! [`StreamPolicy::BufferOccupancy`] variant, a plain
//! [`RateController`]. Select a policy per run via [`AdaptPolicyKind`]
//! and `StreamingSimConfig::builder(..).policy(..)`;
//! [`AdaptPolicyKind::build`] is the one constructor.

use cloudfog_sim::rng::Rng;
use cloudfog_sim::time::{SimDuration, SimTime};
use cloudfog_workload::games::{adjust_up_factor, Game, QualityLevel, QUALITY_LEVELS};

use crate::config::SystemParams;

/// What the controller wants done with the encoding rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RateDecision {
    /// Keep the current quality level.
    Hold,
    /// Increase one quality level (to the returned level).
    Up(u8),
    /// Decrease one quality level (to the returned level).
    Down(u8),
}

/// Why a rate decision happened: the Eqs. 7–11 state at the moment of
/// decision, snapshotted by [`RateController::evaluate_explained`].
///
/// Counters are captured after the current estimation was counted but
/// before a firing run resets, so a switch carries the run length that
/// actually triggered it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptExplain {
    /// Buffer-derived rate estimate `r = buffered / τ`.
    pub r: f64,
    /// Up-switch threshold `(1 + β)/ρ`.
    pub up_threshold: f64,
    /// Down-switch threshold `θ/ρ`.
    pub down_threshold: f64,
    /// Consecutive estimations above the up threshold.
    pub up_run: u32,
    /// Consecutive estimations below the down threshold.
    pub down_run: u32,
    /// Consecutive healthy-stable estimations (probe fuel).
    pub stable_run: u32,
    /// Quality level before the decision.
    pub from_level: u8,
    /// Whether the stability up-probe (not a threshold run) fired.
    pub probe: bool,
    /// Which policy input drove the decision. `None` for the paper's
    /// buffer controller (its provenance serialization predates the
    /// field and stays byte-identical); consumers should read `None`
    /// as [`SwitchDriver::BufferOccupancy`] — or
    /// [`SwitchDriver::StableProbe`] when [`AdaptExplain::probe`] is
    /// set.
    pub driver: Option<SwitchDriver>,
}

/// Which [`PolicyInputs`] signal drove a quality switch — the causal
/// vocabulary the arena's tail attribution aggregates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SwitchDriver {
    /// The Eq. 8 buffer-rate estimate crossed a threshold.
    BufferOccupancy,
    /// The throughput EWMA crossed a level-bitrate boundary.
    Throughput,
    /// The gaze region weight asked for a different quality.
    RegionWeight,
    /// The host supernode's load crossed a pressure threshold.
    HostLoad,
    /// The beyond-paper stable up-probe fired.
    StableProbe,
}

impl SwitchDriver {
    /// Every driver, for exhaustive matching in tooling.
    pub const ALL: [SwitchDriver; 5] = [
        SwitchDriver::BufferOccupancy,
        SwitchDriver::Throughput,
        SwitchDriver::RegionWeight,
        SwitchDriver::HostLoad,
        SwitchDriver::StableProbe,
    ];

    /// Stable label used in provenance JSON and arena reports.
    pub fn label(self) -> &'static str {
        match self {
            SwitchDriver::BufferOccupancy => "buffer.r",
            SwitchDriver::Throughput => "throughput.ewma",
            SwitchDriver::RegionWeight => "gaze.weight",
            SwitchDriver::HostLoad => "host.load",
            SwitchDriver::StableProbe => "probe.stable",
        }
    }
}

/// A rung of the quality ladder, stored as its level: one byte of a
/// policy's state where the [`QualityLevel`] row it names takes 32, so
/// that a [`StreamPolicy`] fits inline in a player record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rung {
    level: u8,
}

impl Rung {
    fn of(quality: QualityLevel) -> Self {
        Rung { level: quality.level }
    }

    /// The ladder row this rung names.
    fn get(self) -> QualityLevel {
        QualityLevel::get(self.level)
    }

    /// The rung above, as [`QualityLevel::up`].
    fn up(self) -> Option<Rung> {
        (usize::from(self.level) < QUALITY_LEVELS.len()).then(|| Rung { level: self.level + 1 })
    }

    /// The rung below, as [`QualityLevel::down`].
    fn down(self) -> Option<Rung> {
        (self.level > 1).then(|| Rung { level: self.level - 1 })
    }
}

/// The Eq. 7 playout-buffer estimate `s(t)` in *seconds of video*
/// (bytes/bitrate normalization makes τ the unit), shared by the paper
/// controller and the foveated policy's congestion guard.
#[derive(Clone, Debug)]
struct PlayoutBuffer {
    /// Buffered video, seconds.
    buffered: f64,
    /// Last estimation instant.
    last_at: Option<SimTime>,
}

impl PlayoutBuffer {
    const EMPTY: PlayoutBuffer = PlayoutBuffer { buffered: 0.0, last_at: None };

    /// Seed the estimate with a prebuffer of `segments` segments.
    fn prime(&mut self, segments: f64, segment_duration: SimDuration) {
        self.buffered = segments * segment_duration.as_secs_f64();
    }

    /// Integrate Eq. 7 from the last estimation instant to `now`.
    fn integrate(
        &mut self,
        now: SimTime,
        download_rate: f64,
        playback_rate: f64,
        segment_duration: SimDuration,
    ) {
        if let Some(prev) = self.last_at {
            let dt = now.saturating_since(prev).as_secs_f64();
            // Clamp: a real client buffer is bounded (two segments of
            // look-ahead credit — more would let one catch-up burst
            // bank enough surplus to flap straight back up), and never
            // negative.
            let cap = 2.0 * segment_duration.as_secs_f64();
            self.buffered = (self.buffered + dt * (download_rate - playback_rate)).clamp(0.0, cap);
        }
        self.last_at = Some(now);
    }

    /// The estimate in segments (`r` of Eq. 8).
    fn r(&self, segment_duration: SimDuration) -> f64 {
        self.buffered / segment_duration.as_secs_f64()
    }
}

/// The receiver-side rate adaptation state machine for one stream.
#[derive(Clone, Debug)]
pub struct RateController {
    /// Current encoding quality level.
    quality: Rung,
    /// Ceiling: the game's max level (from its latency requirement).
    max_quality: Rung,
    /// Adjust-up factor β (Eq. 10) — a property of the level table.
    beta: f64,
    /// Adjust-down threshold θ.
    theta: f64,
    /// Latency tolerance degree ρ of the game.
    rho: f64,
    /// Estimations the condition must hold for consecutively.
    window: u32,
    /// Buffer estimate s(t) (Eq. 7).
    buffer: PlayoutBuffer,
    /// Consecutive up-condition hits.
    up_run: u32,
    /// Consecutive down-condition hits.
    down_run: u32,
    /// Opt-in extension: probe a level up after this many consecutive
    /// stable estimations with r ≥ 1 (`None` = paper-faithful).
    up_probe_after: Option<u32>,
    /// Consecutive stable (in-band, r ≥ 1) estimations.
    stable_run: u32,
}

impl RateController {
    /// A controller for `game` starting at the game's maximum quality.
    pub fn new(game: &Game, theta: f64, window: u32) -> Self {
        let max_quality = Rung::of(game.max_quality());
        RateController {
            quality: max_quality,
            max_quality,
            beta: adjust_up_factor(),
            theta,
            rho: game.latency_tolerance,
            window: window.max(1),
            buffer: PlayoutBuffer::EMPTY,
            up_run: 0,
            down_run: 0,
            up_probe_after: None,
            stable_run: 0,
        }
    }

    /// The controller a stream of `game` runs under `params`: its θ,
    /// hysteresis window and (optional) stable up-probe.
    pub fn from_params(game: &Game, params: &SystemParams) -> Self {
        let ctl = RateController::new(game, params.theta, params.hysteresis_window);
        match params.up_probe_after {
            Some(n) => ctl.with_up_probe(n),
            None => ctl,
        }
    }

    /// Enable the stable up-probe extension (see module docs): after
    /// `stable_estimations` consecutive in-band estimations with
    /// r ≥ 1, probe one quality level up.
    pub fn with_up_probe(mut self, stable_estimations: u32) -> Self {
        self.up_probe_after = Some(stable_estimations.max(1));
        self
    }

    /// Current encoding quality.
    pub fn quality(&self) -> QualityLevel {
        self.quality.get()
    }

    /// The up threshold `(1 + β)/ρ` in segment counts.
    pub fn up_threshold(&self) -> f64 {
        (1.0 + self.beta) / self.rho
    }

    /// The down threshold `θ/ρ` in segment counts.
    pub fn down_threshold(&self) -> f64 {
        self.theta / self.rho
    }

    /// Current buffer estimate in segments (`r` of Eq. 8).
    pub fn r(&self, segment_duration: SimDuration) -> f64 {
        self.buffer.r(segment_duration)
    }

    /// Seed the buffer estimate with a startup prebuffer of
    /// `segments` segments (clients buffer ahead before playing).
    pub fn prime(&mut self, segments: f64, segment_duration: SimDuration) {
        self.buffer.prime(segments, segment_duration);
    }

    /// Feed one estimation step (Eq. 7) and apply Eqs. 9–11,
    /// returning the decision together with its provenance — the rate
    /// estimate, thresholds and consecutive-estimation counters at
    /// the moment the decision was made.
    ///
    /// * `now` — estimation instant t_k;
    /// * `download_rate` — d(t_k), in units of *video-seconds fetched
    ///   per wall second* (bytes/s ÷ current bitrate);
    /// * `playback_rate` — b_p(t_k), video-seconds consumed per wall
    ///   second (1.0 while playing, 0.0 while stalled);
    /// * `segment_duration` — τ.
    pub fn observe_explained(
        &mut self,
        now: SimTime,
        download_rate: f64,
        playback_rate: f64,
        segment_duration: SimDuration,
    ) -> (RateDecision, AdaptExplain) {
        self.buffer.integrate(now, download_rate, playback_rate, segment_duration);
        self.evaluate_explained(segment_duration)
    }

    /// Apply Eqs. 9–11 (with hysteresis) to the *current* buffer
    /// estimate without touching it (one hysteresis estimation still
    /// elapses). The explain snapshot captures the rate estimate, both
    /// thresholds and the consecutive-estimation counters *after* this
    /// estimation was counted but *before* a firing run is reset — so a
    /// switch shows the run length that actually triggered it.
    pub fn evaluate_explained(
        &mut self,
        segment_duration: SimDuration,
    ) -> (RateDecision, AdaptExplain) {
        let r = self.r(segment_duration);
        if r > self.up_threshold() {
            self.up_run += 1;
            self.down_run = 0;
            self.stable_run = 0;
        } else if r < self.down_threshold() {
            self.down_run += 1;
            self.up_run = 0;
            self.stable_run = 0;
        } else {
            self.up_run = 0;
            self.down_run = 0;
            if r >= 1.0 {
                self.stable_run += 1;
            } else {
                self.stable_run = 0;
            }
        }
        let mut explain = AdaptExplain {
            r,
            up_threshold: self.up_threshold(),
            down_threshold: self.down_threshold(),
            up_run: self.up_run,
            down_run: self.down_run,
            stable_run: self.stable_run,
            from_level: self.quality.level,
            probe: false,
            driver: None,
        };

        // Extension: probe up after sustained healthy stability.
        if let Some(n) = self.up_probe_after {
            if self.stable_run >= n {
                self.stable_run = 0;
                if self.quality.level < self.max_quality.level {
                    if let Some(up) = self.quality.up() {
                        self.quality = up;
                        explain.probe = true;
                        return (RateDecision::Up(up.level), explain);
                    }
                }
            }
        }

        if self.up_run >= self.window {
            self.up_run = 0;
            if self.quality.level < self.max_quality.level {
                if let Some(up) = self.quality.up() {
                    self.quality = up;
                    return (RateDecision::Up(up.level), explain);
                }
            }
            return (RateDecision::Hold, explain);
        }
        if self.down_run >= self.window {
            self.down_run = 0;
            if let Some(down) = self.quality.down() {
                self.quality = down;
                return (RateDecision::Down(down.level), explain);
            }
            return (RateDecision::Hold, explain);
        }
        (RateDecision::Hold, explain)
    }
}

/// One estimation step's worth of signals, snapshotted by the
/// simulation at segment delivery and handed to whichever
/// [`StreamPolicy`] the run selected. Policies read what they need and
/// ignore the rest; the simulation only *computes* the optional
/// signals (gaze weight, host load) when the selected policy declares
/// it consumes them ([`AdaptPolicyKind::needs_gaze`] /
/// [`AdaptPolicyKind::needs_load`]), so the paper-default hot path
/// pays nothing for the arena.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyInputs {
    /// Estimation instant t_k.
    pub now: SimTime,
    /// Measured download rate d(t_k) in video-seconds fetched per wall
    /// second (bytes/s ÷ current bitrate).
    pub download_rate: f64,
    /// Playback rate b_p(t_k) in video-seconds consumed per wall
    /// second: 1.0 while playing, 0.0 while stalled or draining.
    pub playback_rate: f64,
    /// Segment duration τ.
    pub segment_duration: SimDuration,
    /// Gaze region weight of this segment's screen region, in [0, 1]
    /// (1 = foveal focus). Neutral 1.0 when the policy ignores gaze.
    pub region_weight: f64,
    /// Load of the hosting supernode in [0, 1] (assigned / capacity);
    /// 0.0 for cloud/edge sources and when the policy ignores load.
    pub host_load: f64,
}

impl PolicyInputs {
    /// A rate-only snapshot (neutral gaze weight, zero host load) —
    /// what buffer- and bandwidth-driven policies consume.
    pub fn rate_only(
        now: SimTime,
        download_rate: f64,
        playback_rate: f64,
        segment_duration: SimDuration,
    ) -> Self {
        PolicyInputs {
            now,
            download_rate,
            playback_rate,
            segment_duration,
            region_weight: 1.0,
            host_load: 0.0,
        }
    }

    /// Attach a gaze region weight.
    pub fn with_region_weight(mut self, weight: f64) -> Self {
        self.region_weight = weight;
        self
    }

    /// Attach the hosting supernode's load.
    pub fn with_host_load(mut self, load: f64) -> Self {
        self.host_load = load;
        self
    }
}

/// Throughput-EWMA adaptation (Ewelle-style): pick the highest level
/// whose bitrate fits under the smoothed measured throughput with a
/// safety headroom, with the same consecutive-estimation hysteresis
/// as the paper controller. Ignores the buffer entirely — the classic
/// DASH-era alternative the arena compares against.
#[derive(Clone, Debug)]
pub struct BandwidthAwarePolicy {
    quality: Rung,
    max_quality: Rung,
    /// Consecutive estimations a condition must hold.
    window: u32,
    /// Smoothed absolute throughput estimate (kbit/s).
    ewma_kbps: f64,
    up_run: u32,
    down_run: u32,
}

impl BandwidthAwarePolicy {
    /// Required throughput margin: a level fits when
    /// `HEADROOM × bitrate ≤ ewma`.
    pub const HEADROOM: f64 = 1.15;
    /// EWMA smoothing factor α ∈ (0, 1] of the throughput estimate.
    pub const EWMA_ALPHA: f64 = 0.3;

    /// A bandwidth-aware policy for `game` starting at the game's
    /// maximum quality.
    fn new(game: &Game, params: &SystemParams) -> Self {
        let max_quality = Rung::of(game.max_quality());
        BandwidthAwarePolicy {
            quality: max_quality,
            max_quality,
            window: params.hysteresis_window.max(1),
            ewma_kbps: 0.0,
            up_run: 0,
            down_run: 0,
        }
    }

    /// One hysteresis estimation against the current EWMA.
    fn decide(&mut self) -> (RateDecision, AdaptExplain) {
        let current = self.quality.get().bitrate_kbps as f64;
        let next =
            (self.quality.level < self.max_quality.level).then(|| self.quality.up()).flatten();
        // Thresholds in units of the current level's bitrate, so the
        // explain snapshot reads like the paper's `r` vs thresholds.
        let surplus = self.ewma_kbps / current;
        let up_threshold =
            next.map_or(0.0, |n| Self::HEADROOM * n.get().bitrate_kbps as f64 / current);
        let down_threshold = Self::HEADROOM;
        if self.ewma_kbps < Self::HEADROOM * current {
            self.down_run += 1;
            self.up_run = 0;
        } else if next
            .is_some_and(|n| self.ewma_kbps >= Self::HEADROOM * n.get().bitrate_kbps as f64)
        {
            self.up_run += 1;
            self.down_run = 0;
        } else {
            self.up_run = 0;
            self.down_run = 0;
        }
        let explain = AdaptExplain {
            r: surplus,
            up_threshold,
            down_threshold,
            up_run: self.up_run,
            down_run: self.down_run,
            stable_run: 0,
            from_level: self.quality.level,
            probe: false,
            driver: Some(SwitchDriver::Throughput),
        };
        if self.down_run >= self.window {
            self.down_run = 0;
            if let Some(down) = self.quality.down() {
                self.quality = down;
                return (RateDecision::Down(down.level), explain);
            }
            return (RateDecision::Hold, explain);
        }
        if self.up_run >= self.window {
            self.up_run = 0;
            if let Some(up) = next {
                self.quality = up;
                return (RateDecision::Up(up.level), explain);
            }
        }
        (RateDecision::Hold, explain)
    }

    fn prime(&mut self, segments: f64) {
        // A prebuffer of n segments reads as n× real-time throughput
        // banked: seed the EWMA at that multiple of the current level.
        self.ewma_kbps = self.quality.get().bitrate_kbps as f64 * segments.max(0.0);
    }

    fn observe_explained(&mut self, inputs: &PolicyInputs) -> (RateDecision, AdaptExplain) {
        // d is normalized to the current bitrate (video-seconds per
        // wall second), so the absolute throughput sample is d × b_q.
        let sample = inputs.download_rate.max(0.0) * self.quality.get().bitrate_kbps as f64;
        self.ewma_kbps = if self.ewma_kbps == 0.0 {
            sample
        } else {
            Self::EWMA_ALPHA * sample + (1.0 - Self::EWMA_ALPHA) * self.ewma_kbps
        };
        self.decide()
    }
}

/// Foveated quality allocation (Illahi et al.): the gaze region weight
/// of each segment sets a quality *target* — peripheral segments are
/// encoded lower, foveal segments as high as the game allows — while
/// an Eq. 7 buffer guard still forces quality down under congestion.
/// Quality follows attention, bandwidth permitting.
#[derive(Clone, Debug)]
pub struct FoveatedPolicy {
    quality: Rung,
    max_quality: Rung,
    window: u32,
    /// Congestion guard threshold θ/ρ (same form as Eq. 11).
    theta: f64,
    rho: f64,
    buffer: PlayoutBuffer,
    last_weight: f64,
    starve_run: u32,
    gaze_up_run: u32,
    gaze_down_run: u32,
}

impl FoveatedPolicy {
    /// A foveated policy for `game` starting at the game's maximum
    /// quality with a neutral (foveal) gaze.
    fn new(game: &Game, params: &SystemParams) -> Self {
        let max_quality = Rung::of(game.max_quality());
        FoveatedPolicy {
            quality: max_quality,
            max_quality,
            window: params.hysteresis_window.max(1),
            theta: params.theta,
            rho: game.latency_tolerance,
            buffer: PlayoutBuffer::EMPTY,
            last_weight: 1.0,
            starve_run: 0,
            gaze_up_run: 0,
            gaze_down_run: 0,
        }
    }

    /// Quality level the current gaze weight asks for: weight 0 maps
    /// to the ladder floor, weight 1 to the game's maximum.
    fn gaze_target(&self) -> u8 {
        let span = (self.max_quality.level - 1) as f64;
        1 + (self.last_weight.clamp(0.0, 1.0) * span).round() as u8
    }

    /// One hysteresis estimation against the current buffer + gaze.
    fn decide(&mut self, segment_duration: SimDuration) -> (RateDecision, AdaptExplain) {
        let r = self.buffer.r(segment_duration);
        let down_threshold = self.theta / self.rho;
        let target = self.gaze_target();
        let starving = r < down_threshold;
        if starving {
            self.starve_run += 1;
            self.gaze_up_run = 0;
            self.gaze_down_run = 0;
        } else {
            self.starve_run = 0;
            match target.cmp(&self.quality.level) {
                std::cmp::Ordering::Greater => {
                    self.gaze_up_run += 1;
                    self.gaze_down_run = 0;
                }
                std::cmp::Ordering::Less => {
                    self.gaze_down_run += 1;
                    self.gaze_up_run = 0;
                }
                std::cmp::Ordering::Equal => {
                    self.gaze_up_run = 0;
                    self.gaze_down_run = 0;
                }
            }
        }
        let mut explain = AdaptExplain {
            r,
            // For a gaze policy the up condition is "the gaze target
            // is above the current level"; expose the target itself.
            up_threshold: target as f64,
            down_threshold,
            up_run: self.gaze_up_run,
            down_run: if starving { self.starve_run } else { self.gaze_down_run },
            stable_run: 0,
            from_level: self.quality.level,
            probe: false,
            driver: Some(SwitchDriver::RegionWeight),
        };
        if self.starve_run >= self.window {
            self.starve_run = 0;
            explain.driver = Some(SwitchDriver::BufferOccupancy);
            if let Some(down) = self.quality.down() {
                self.quality = down;
                return (RateDecision::Down(down.level), explain);
            }
            return (RateDecision::Hold, explain);
        }
        if self.gaze_down_run >= self.window {
            self.gaze_down_run = 0;
            if let Some(down) = self.quality.down() {
                self.quality = down;
                return (RateDecision::Down(down.level), explain);
            }
            return (RateDecision::Hold, explain);
        }
        if self.gaze_up_run >= self.window && self.quality.level < self.max_quality.level {
            self.gaze_up_run = 0;
            if let Some(up) = self.quality.up() {
                self.quality = up;
                return (RateDecision::Up(up.level), explain);
            }
        }
        (RateDecision::Hold, explain)
    }

    fn observe_explained(&mut self, inputs: &PolicyInputs) -> (RateDecision, AdaptExplain) {
        self.buffer.integrate(
            inputs.now,
            inputs.download_rate,
            inputs.playback_rate,
            inputs.segment_duration,
        );
        self.last_weight = inputs.region_weight;
        self.decide(inputs.segment_duration)
    }
}

/// Server-load-driven encode quality (Stimpack-style): the hosting
/// supernode's load — not the client's buffer — sets the encode
/// quality. Sustained pressure above [`ServerAwarePolicy::LOAD_HIGH`]
/// sheds one level; sustained slack below
/// [`ServerAwarePolicy::LOAD_LOW`] probes one back up,
/// with an RNG coin flip so one overloaded supernode's players don't
/// all recover in lockstep and immediately re-overload it.
#[derive(Clone, Debug)]
pub struct ServerAwarePolicy {
    quality: Rung,
    max_quality: Rung,
    window: u32,
    last_load: f64,
    high_run: u32,
    low_run: u32,
}

impl ServerAwarePolicy {
    /// Supernode load above which the policy sheds encode quality.
    /// Deliberately conservative: a render-constrained supernode needs
    /// headroom *before* it saturates, and Pareto capacities mean
    /// typical fog loads sit well below 1.0.
    pub const LOAD_HIGH: f64 = 0.6;
    /// Supernode load below which the policy probes encode quality
    /// back up.
    pub const LOAD_LOW: f64 = 0.3;

    /// A server-aware policy for `game` starting at the game's
    /// maximum quality.
    fn new(game: &Game, params: &SystemParams) -> Self {
        let max_quality = Rung::of(game.max_quality());
        ServerAwarePolicy {
            quality: max_quality,
            max_quality,
            window: params.hysteresis_window.max(1),
            last_load: 0.0,
            high_run: 0,
            low_run: 0,
        }
    }

    /// One hysteresis estimation against the current host load.
    fn decide(&mut self, rng: &mut Rng) -> (RateDecision, AdaptExplain) {
        if self.last_load > Self::LOAD_HIGH {
            self.high_run += 1;
            self.low_run = 0;
        } else if self.last_load < Self::LOAD_LOW {
            self.low_run += 1;
            self.high_run = 0;
        } else {
            self.high_run = 0;
            self.low_run = 0;
        }
        let explain = AdaptExplain {
            // Reinterpreted for a load policy: `r` is the host load,
            // the *down* threshold is the high-pressure bound and the
            // *up* threshold the low-pressure bound it must sink below.
            r: self.last_load,
            up_threshold: Self::LOAD_LOW,
            down_threshold: Self::LOAD_HIGH,
            up_run: self.low_run,
            down_run: self.high_run,
            stable_run: 0,
            from_level: self.quality.level,
            probe: false,
            driver: Some(SwitchDriver::HostLoad),
        };
        if self.high_run >= self.window {
            self.high_run = 0;
            if let Some(down) = self.quality.down() {
                self.quality = down;
                return (RateDecision::Down(down.level), explain);
            }
            return (RateDecision::Hold, explain);
        }
        if self.low_run >= self.window {
            self.low_run = 0;
            // Desynchronized recovery: half the eligible players (in
            // expectation) take the probe each window.
            if self.quality.level < self.max_quality.level && rng.chance(0.5) {
                if let Some(up) = self.quality.up() {
                    self.quality = up;
                    return (RateDecision::Up(up.level), explain);
                }
            }
        }
        (RateDecision::Hold, explain)
    }

    fn observe_explained(
        &mut self,
        inputs: &PolicyInputs,
        rng: &mut Rng,
    ) -> (RateDecision, AdaptExplain) {
        self.last_load = inputs.host_load.clamp(0.0, 1.0);
        self.decide(rng)
    }
}

/// One stream's adaptation policy, stored inline: one variant per arena
/// contestant, plus [`StreamPolicy::Fixed`] for a stream that does not
/// adapt (a system without adaptation, or a session a brownout cap
/// pins). [`AdaptPolicyKind::build`] builds the adaptive variants.
///
/// Every variant keeps all its state local (quality level, hysteresis
/// runs, EWMAs) and keeps its quality within `[1, game.max_quality()]`
/// — the harness's `adapt.ladder_bounds` invariant and the arena
/// proptests enforce it. The `rng` the simulation hands
/// [`StreamPolicy::observe_explained`] and
/// [`StreamPolicy::evaluate_explained`] is a deterministic stream
/// (`rng_policy`), so a policy may jitter decisions (e.g. desynchronize
/// recovery probes) without breaking same-seed replay.
#[derive(Clone, Debug)]
pub enum StreamPolicy {
    /// The paper's §III-B controller.
    BufferOccupancy(RateController),
    /// Throughput-EWMA level selection.
    BandwidthAware(BandwidthAwarePolicy),
    /// Gaze-weighted quality targets.
    Foveated(FoveatedPolicy),
    /// Supernode-load feedback.
    ServerAware(ServerAwarePolicy),
    /// A quality nothing changes: every estimation holds.
    Fixed(QualityLevel),
}

impl StreamPolicy {
    /// False for [`StreamPolicy::Fixed`], whose decision is always
    /// [`RateDecision::Hold`]: callers skip gathering its inputs.
    pub fn adapts(&self) -> bool {
        !matches!(self, StreamPolicy::Fixed(_))
    }

    /// Current encoding quality.
    pub fn quality(&self) -> QualityLevel {
        match self {
            StreamPolicy::BufferOccupancy(p) => p.quality(),
            StreamPolicy::BandwidthAware(p) => p.quality.get(),
            StreamPolicy::Foveated(p) => p.quality.get(),
            StreamPolicy::ServerAware(p) => p.quality.get(),
            StreamPolicy::Fixed(q) => *q,
        }
    }

    /// Seed the policy's startup state with a prebuffer of `segments`
    /// segments (clients buffer ahead before playing).
    pub fn prime(&mut self, segments: f64, segment_duration: SimDuration) {
        match self {
            StreamPolicy::BufferOccupancy(p) => p.prime(segments, segment_duration),
            StreamPolicy::BandwidthAware(p) => p.prime(segments),
            StreamPolicy::Foveated(p) => p.buffer.prime(segments, segment_duration),
            StreamPolicy::ServerAware(_) | StreamPolicy::Fixed(_) => {}
        }
    }

    /// Ingest one estimation step and decide, with provenance;
    /// [`AdaptExplain::driver`] names which input drove a switch.
    pub fn observe_explained(
        &mut self,
        inputs: &PolicyInputs,
        rng: &mut Rng,
    ) -> (RateDecision, AdaptExplain) {
        match self {
            StreamPolicy::BufferOccupancy(p) => p.observe_explained(
                inputs.now,
                inputs.download_rate,
                inputs.playback_rate,
                inputs.segment_duration,
            ),
            StreamPolicy::BandwidthAware(p) => p.observe_explained(inputs),
            StreamPolicy::Foveated(p) => p.observe_explained(inputs),
            StreamPolicy::ServerAware(p) => p.observe_explained(inputs, rng),
            StreamPolicy::Fixed(q) => (RateDecision::Hold, Self::fixed_explain(*q)),
        }
    }

    /// Re-apply the decision rule to the current policy state without
    /// ingesting a new sample (one hysteresis estimation still
    /// elapses), with provenance.
    pub fn evaluate_explained(
        &mut self,
        segment_duration: SimDuration,
        rng: &mut Rng,
    ) -> (RateDecision, AdaptExplain) {
        match self {
            StreamPolicy::BufferOccupancy(p) => p.evaluate_explained(segment_duration),
            StreamPolicy::BandwidthAware(p) => p.decide(),
            StreamPolicy::Foveated(p) => p.decide(segment_duration),
            StreamPolicy::ServerAware(p) => p.decide(rng),
            StreamPolicy::Fixed(q) => (RateDecision::Hold, Self::fixed_explain(*q)),
        }
    }

    /// The explain snapshot of a fixed stream's hold.
    fn fixed_explain(quality: QualityLevel) -> AdaptExplain {
        AdaptExplain {
            r: 0.0,
            up_threshold: 0.0,
            down_threshold: 0.0,
            up_run: 0,
            down_run: 0,
            stable_run: 0,
            from_level: quality.level,
            probe: false,
            driver: None,
        }
    }
}

/// Which adaptation policy a run selects — the configuration handle
/// wired through `StreamingSimConfig::builder(..).policy(..)` and the
/// harness's outermost matrix axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdaptPolicyKind {
    /// The paper's §III-B buffer-occupancy controller (default).
    BufferOccupancy,
    /// Throughput-EWMA level selection ([`BandwidthAwarePolicy`]).
    BandwidthAware,
    /// Gaze-weighted quality targets ([`FoveatedPolicy`]).
    Foveated,
    /// Supernode-load feedback ([`ServerAwarePolicy`]).
    ServerAware,
}

impl AdaptPolicyKind {
    /// Every policy, in arena order.
    pub const ALL: [AdaptPolicyKind; 4] = [
        AdaptPolicyKind::BufferOccupancy,
        AdaptPolicyKind::BandwidthAware,
        AdaptPolicyKind::Foveated,
        AdaptPolicyKind::ServerAware,
    ];

    /// Stable short label for cell names and reports.
    pub fn label(self) -> &'static str {
        match self {
            AdaptPolicyKind::BufferOccupancy => "buffer",
            AdaptPolicyKind::BandwidthAware => "bandwidth",
            AdaptPolicyKind::Foveated => "foveated",
            AdaptPolicyKind::ServerAware => "server",
        }
    }

    /// Whether the policy consumes the gaze region weight (the
    /// simulation only samples the gaze generator when it does).
    pub fn needs_gaze(self) -> bool {
        matches!(self, AdaptPolicyKind::Foveated)
    }

    /// Whether the policy consumes the host supernode load.
    pub fn needs_load(self) -> bool {
        matches!(self, AdaptPolicyKind::ServerAware)
    }

    /// Construct and prime the policy for one stream of `game` —
    /// every policy starts with the same one-segment prebuffer the
    /// paper controller gets at join.
    pub fn build(self, game: &Game, params: &SystemParams) -> StreamPolicy {
        let mut policy = match self {
            AdaptPolicyKind::BufferOccupancy => {
                StreamPolicy::BufferOccupancy(RateController::from_params(game, params))
            }
            AdaptPolicyKind::BandwidthAware => {
                StreamPolicy::BandwidthAware(BandwidthAwarePolicy::new(game, params))
            }
            AdaptPolicyKind::Foveated => StreamPolicy::Foveated(FoveatedPolicy::new(game, params)),
            AdaptPolicyKind::ServerAware => {
                StreamPolicy::ServerAware(ServerAwarePolicy::new(game, params))
            }
        };
        policy.prime(1.0, params.segment_duration);
        policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_workload::games::GAMES;

    const TAU: SimDuration = SimDuration::from_millis(500);

    fn controller(game_idx: usize) -> RateController {
        RateController::new(&GAMES[game_idx], 0.5, 3)
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_micros((secs * 1e6) as u64)
    }

    #[test]
    fn starts_at_game_max_quality() {
        assert_eq!(controller(0).quality().level, 5); // 110 ms game
        assert_eq!(controller(4).quality().level, 1); // 30 ms game
    }

    #[test]
    fn thresholds_follow_the_formulas() {
        let c = controller(0); // ρ = 1.0
        assert!((c.up_threshold() - (1.0 + 2.0 / 3.0)).abs() < 1e-9);
        assert!((c.down_threshold() - 0.5).abs() < 1e-9);

        let c = controller(4); // ρ = 0.6
        assert!((c.up_threshold() - (1.0 + 2.0 / 3.0) / 0.6).abs() < 1e-9);
        assert!((c.down_threshold() - 0.5 / 0.6).abs() < 1e-9);
    }

    #[test]
    fn latency_sensitive_games_have_higher_thresholds() {
        // Lower ρ ⇒ both thresholds higher (paper's closing remark of
        // §III-B).
        let tolerant = controller(0);
        let sensitive = controller(4);
        assert!(sensitive.up_threshold() > tolerant.up_threshold());
        assert!(sensitive.down_threshold() > tolerant.down_threshold());
    }

    #[test]
    fn sustained_surplus_adjusts_up_after_window() {
        let mut c = controller(1); // max level 4, ρ = 0.9
                                   // Force quality down so there is headroom to move up.
        c.quality = Rung { level: 2 };
        // Healthy buffer: download 3× playback, 1 s steps.
        let mut decisions = Vec::new();
        for k in 0..10 {
            decisions.push(c.observe_explained(t(k as f64), 3.0, 1.0, TAU).0);
        }
        let ups = decisions.iter().filter(|d| matches!(d, RateDecision::Up(_))).count();
        assert!(ups >= 1, "no up-switch in {decisions:?}");
        // First three observations cannot switch (window = 3).
        assert_eq!(decisions[0], RateDecision::Hold);
        assert_eq!(decisions[1], RateDecision::Hold);
    }

    #[test]
    fn starvation_adjusts_down_after_window() {
        let mut c = controller(0); // level 5
                                   // Pre-fill a bit, then starve: download 0, playback 1.
        c.prime(1.0, TAU);
        let mut downs = 0;
        for k in 0..10 {
            if let RateDecision::Down(_) = c.observe_explained(t(k as f64), 0.0, 1.0, TAU).0 {
                downs += 1;
            }
        }
        assert!(downs >= 1, "no down-switch under starvation");
        assert!(c.quality().level < 5);
    }

    #[test]
    fn never_exceeds_game_max_or_floor() {
        let mut c = controller(3); // 50 ms game, max level 2
        for k in 0..50 {
            c.observe_explained(t(k as f64), 10.0, 1.0, TAU); // extreme surplus
        }
        assert!(c.quality().level <= 2, "exceeded game max");

        let mut c = controller(3);
        for k in 0..50 {
            c.observe_explained(t(k as f64), 0.0, 1.0, TAU); // extreme starvation
        }
        assert_eq!(c.quality().level, 1, "fell below floor");
    }

    #[test]
    fn hysteresis_requires_consecutive_hits() {
        let mut c = controller(1);
        c.quality = Rung { level: 2 };
        // Alternate surplus and balance: the run counter must reset,
        // so no switch ever fires.
        for k in 0..20 {
            let (d, p) = if k % 2 == 0 { (5.0, 1.0) } else { (1.0, 1.0) };
            // Drain buffer between surplus steps so r re-enters the
            // hold band on odd steps.
            c.buffer.buffered = if k % 2 == 0 { 2.0 } else { 0.4 };
            let dec = c.observe_explained(t(k as f64), d, p, TAU).0;
            assert_eq!(dec, RateDecision::Hold, "switched at step {k}");
        }
    }

    #[test]
    fn paper_faithful_controller_never_probes_up_in_steady_state() {
        let mut c = controller(1);
        c.quality = Rung { level: 2 };
        c.prime(1.0, TAU);
        for k in 0..200 {
            // Perfectly healthy realtime stream: d = 1, r pinned ≈ 1.
            let dec = c.observe_explained(t(k as f64), 1.0, 1.0, TAU).0;
            assert_eq!(dec, RateDecision::Hold);
        }
        assert_eq!(c.quality().level, 2, "Eq. 9 alone cannot recover quality");
    }

    #[test]
    fn up_probe_extension_recovers_quality_in_steady_state() {
        let mut c = RateController::new(&GAMES[1], 0.5, 3).with_up_probe(10);
        c.quality = Rung { level: 2 };
        c.prime(1.0, TAU);
        let mut ups = 0;
        for k in 0..50 {
            if let RateDecision::Up(_) = c.observe_explained(t(k as f64), 1.0, 1.0, TAU).0 {
                ups += 1;
            }
        }
        assert!(ups >= 2, "probe must climb back: {ups} ups");
        assert_eq!(c.quality().level, 4, "recovered to the game max");
        // And never beyond the game max.
        for k in 50..100 {
            c.observe_explained(t(k as f64), 1.0, 1.0, TAU);
        }
        assert_eq!(c.quality().level, 4);
    }

    #[test]
    fn up_probe_does_not_fire_while_starving() {
        let mut c = RateController::new(&GAMES[1], 0.5, 3).with_up_probe(5);
        c.quality = Rung { level: 2 };
        // Starved stream: r ≈ 0, the probe must stay quiet (quality
        // can only go down).
        for k in 0..30 {
            let dec = c.observe_explained(t(k as f64), 0.2, 1.0, TAU).0;
            assert!(!matches!(dec, RateDecision::Up(_)), "probed up while starving");
        }
        assert_eq!(c.quality().level, 1);
    }

    #[test]
    fn buffer_estimate_tracks_eq7() {
        let mut c = controller(0);
        c.observe_explained(t(0.0), 2.0, 1.0, TAU);
        // One second at net +1 video-second/s.
        c.observe_explained(t(1.0), 2.0, 1.0, TAU);
        assert!((c.buffer.buffered - 1.0).abs() < 1e-9, "buffered {}", c.buffer.buffered);
        assert!((c.r(TAU) - 2.0).abs() < 1e-9, "r {}", c.r(TAU));
    }

    #[test]
    fn buffer_never_negative() {
        let mut c = controller(0);
        c.observe_explained(t(0.0), 0.0, 1.0, TAU);
        c.observe_explained(t(100.0), 0.0, 1.0, TAU);
        assert_eq!(c.buffer.buffered, 0.0);
    }

    // ── Arena policies ────────────────────────────────────────────

    fn arena_params() -> SystemParams {
        SystemParams {
            theta: 0.5,
            hysteresis_window: 3,
            segment_duration: TAU,
            ..Default::default()
        }
    }

    fn rate_inputs(secs: f64, d: f64) -> PolicyInputs {
        PolicyInputs::rate_only(t(secs), d, 1.0, TAU)
    }

    #[test]
    fn buffer_policy_is_bit_identical_to_rate_controller() {
        let params = arena_params();
        let mut raw = RateController::from_params(&GAMES[1], &params);
        raw.prime(1.0, TAU);
        let mut policy = AdaptPolicyKind::BufferOccupancy.build(&GAMES[1], &params);
        let mut rng = Rng::new(7);
        // A stream that starves, recovers, and saturates.
        let pattern = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0, 0.2, 0.2];
        for (k, &d) in pattern.iter().cycle().take(100).enumerate() {
            let (dec_raw, ex_raw) = raw.observe_explained(t(k as f64), d, 1.0, TAU);
            let (dec, ex) = policy.observe_explained(&rate_inputs(k as f64, d), &mut rng);
            assert_eq!(dec_raw, dec, "diverged at step {k}");
            assert_eq!(ex_raw, ex, "explain diverged at step {k}");
            assert_eq!(ex.driver, None, "paper controller must not claim a driver");
        }
        assert_eq!(raw.quality(), policy.quality());
    }

    #[test]
    fn bandwidth_policy_follows_throughput() {
        let params = arena_params();
        let mut p = AdaptPolicyKind::BandwidthAware.build(&GAMES[0], &params); // max level 5
        let mut rng = Rng::new(7);
        // Throughput collapses to 0.3× realtime: must shed quality.
        for k in 0..30 {
            p.observe_explained(&rate_inputs(k as f64, 0.3), &mut rng);
        }
        assert!(p.quality().level < 5, "never shed under collapse");
        let low = p.quality().level;
        // Fat pipe (5× realtime at the current level): must climb back.
        for k in 30..90 {
            let (_, ex) = p.observe_explained(&rate_inputs(k as f64, 5.0), &mut rng);
            assert_eq!(ex.driver, Some(SwitchDriver::Throughput));
        }
        assert!(p.quality().level > low, "never recovered on a fat pipe");
        assert!(p.quality().level <= 5);
    }

    #[test]
    fn foveated_policy_tracks_gaze_weight() {
        let params = arena_params();
        let mut p = AdaptPolicyKind::Foveated.build(&GAMES[0], &params); // max level 5
        let mut rng = Rng::new(7);
        p.prime(2.0, TAU);
        // Healthy stream, gaze in the periphery: quality must sink
        // toward the floor even though bandwidth is fine.
        for k in 0..30 {
            let (dec, ex) =
                p.observe_explained(&rate_inputs(k as f64, 1.2).with_region_weight(0.0), &mut rng);
            if !matches!(dec, RateDecision::Hold) {
                assert_eq!(ex.driver, Some(SwitchDriver::RegionWeight));
            }
        }
        assert_eq!(p.quality().level, 1, "peripheral region kept high quality");
        // Gaze returns to the fovea: quality climbs back to game max.
        for k in 30..90 {
            p.observe_explained(&rate_inputs(k as f64, 1.2).with_region_weight(1.0), &mut rng);
        }
        assert_eq!(p.quality().level, 5, "foveal region stuck low");
    }

    #[test]
    fn foveated_policy_buffer_guard_overrides_gaze() {
        let params = arena_params();
        let mut p = AdaptPolicyKind::Foveated.build(&GAMES[0], &params);
        let mut rng = Rng::new(7);
        // Foveal gaze wants max quality, but the stream is starving:
        // the Eq. 7 guard must force quality down anyway.
        let mut guard_downs = 0;
        for k in 0..30 {
            let (dec, ex) =
                p.observe_explained(&rate_inputs(k as f64, 0.0).with_region_weight(1.0), &mut rng);
            if matches!(dec, RateDecision::Down(_)) {
                assert_eq!(ex.driver, Some(SwitchDriver::BufferOccupancy));
                guard_downs += 1;
            }
        }
        assert!(guard_downs >= 1, "starvation never overrode the gaze target");
        assert_eq!(p.quality().level, 1);
    }

    #[test]
    fn server_policy_sheds_under_load_and_probes_back() {
        let params = arena_params();
        let mut p = AdaptPolicyKind::ServerAware.build(&GAMES[0], &params);
        let mut rng = Rng::new(7);
        // Sustained overload: must shed within ladder bounds.
        for k in 0..30 {
            let (_, ex) =
                p.observe_explained(&rate_inputs(k as f64, 1.0).with_host_load(0.95), &mut rng);
            assert_eq!(ex.driver, Some(SwitchDriver::HostLoad));
        }
        assert_eq!(p.quality().level, 1, "did not shed under sustained overload");
        // Sustained slack: the jittered probe must eventually recover.
        for k in 30..300 {
            p.observe_explained(&rate_inputs(k as f64, 1.0).with_host_load(0.2), &mut rng);
        }
        assert_eq!(p.quality().level, 5, "never recovered under slack");
    }

    #[test]
    fn server_policy_recovery_is_deterministic_per_seed() {
        let params = arena_params();
        let run = |seed: u64| {
            let mut p = AdaptPolicyKind::ServerAware.build(&GAMES[0], &params);
            let mut rng = Rng::new(seed);
            let mut decisions = Vec::new();
            for k in 0..120 {
                let load = if k < 20 { 0.95 } else { 0.2 };
                decisions.push(
                    p.observe_explained(&rate_inputs(k as f64, 1.0).with_host_load(load), &mut rng)
                        .0,
                );
            }
            decisions
        };
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert_ne!(run(11), run(12), "probe jitter should differ across seeds");
    }

    #[test]
    fn every_policy_kind_builds_primed_at_game_max() {
        let params = arena_params();
        for kind in AdaptPolicyKind::ALL {
            for game in GAMES.iter() {
                let p = kind.build(game, &params);
                assert_eq!(p.quality(), game.max_quality(), "{} mis-primed", kind.label());
            }
        }
    }

    #[test]
    fn fixed_policy_always_holds_its_quality() {
        let quality = QualityLevel::get(2);
        let mut p = StreamPolicy::Fixed(quality);
        let mut rng = Rng::new(7);
        assert!(!p.adapts());
        p.prime(3.0, TAU);
        for k in 0..10 {
            let (dec, ex) = p.observe_explained(&rate_inputs(k as f64, 0.0), &mut rng);
            assert_eq!((dec, ex.from_level), (RateDecision::Hold, 2));
            assert_eq!(p.evaluate_explained(TAU, &mut rng).0, RateDecision::Hold);
        }
        assert_eq!(p.quality(), quality);
    }

    #[test]
    fn policy_labels_are_unique_and_stable() {
        let labels: Vec<_> = AdaptPolicyKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["buffer", "bandwidth", "foveated", "server"]);
        for driver in SwitchDriver::ALL {
            assert!(!driver.label().is_empty());
        }
    }
}
