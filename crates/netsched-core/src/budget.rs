//! Cooperative budgets for deadline-bounded (anytime) solving.
//!
//! The two-phase engine's first phase is a sequence of MIS/raise rounds
//! whose dual assignment only ever grows, so the λ-certificate is
//! **monotone**: stopping after any prefix of rounds still yields a
//! feasible schedule (the second phase replays whatever the stack holds)
//! and a *valid* — merely weaker — optimum upper bound
//! `dual_objective / λ` (weak duality holds for every dual assignment;
//! λ is clamped away from zero exactly like the full run's certificate).
//!
//! A [`Budget`] makes that cut point explicit: the engine calls
//! [`Budget::consume_round`] between rounds and stops cooperatively the
//! first time it returns `false`. Two limits compose, either or both may be
//! set:
//!
//! * a **round cap** ([`Budget::rounds`]) — deterministic, the form the
//!   anytime proptest contract is stated against;
//! * a **wall-clock deadline** ([`Budget::deadline`]) — what a serving
//!   tier's latency budget compiles to.
//!
//! Solutions report where they landed through
//! [`CertificateQuality`] in
//! [`RunDiagnostics::quality`](crate::RunDiagnostics::quality).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A cooperative limit on first-phase MIS/raise rounds; see the
/// [module docs](self). One budget may be shared by several engine runs
/// (the wide/narrow split solves both halves against the same budget):
/// round accounting is internal and atomic, so the cap applies to the
/// *total* across everything charged against it.
#[derive(Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_rounds: Option<u64>,
    rounds_used: AtomicU64,
}

impl Budget {
    /// No limit: the engine runs to full certification. Equivalent to the
    /// un-budgeted entry points.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// At most `max_rounds` first-phase MIS/raise rounds. Deterministic:
    /// the cut lands at the same round on every identically-seeded run.
    pub fn rounds(max_rounds: u64) -> Self {
        Self::default().with_rounds(max_rounds)
    }

    /// Cut when `budget` of wall-clock time has elapsed (measured from
    /// this call, not from the solve's start).
    pub fn deadline(budget: Duration) -> Self {
        Self::default().with_deadline(budget)
    }

    /// Adds a round cap to this budget (the tighter of the limits wins).
    pub fn with_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Adds a wall-clock deadline `budget` from now.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// `true` when any limit is set; an unlimited budget lets engines
    /// skip all accounting.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_rounds.is_some()
    }

    /// Charges one first-phase round. Returns `false` when the round must
    /// **not** run — the budget is exhausted (round cap reached or
    /// deadline passed) and the engine should cut.
    pub fn consume_round(&self) -> bool {
        if !self.is_limited() {
            return true;
        }
        let used = self.rounds_used.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.max_rounds {
            if used >= cap {
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return false;
            }
        }
        true
    }

    /// Rounds charged so far (including the one that tripped the cap, if
    /// any).
    pub fn rounds_used(&self) -> u64 {
        self.rounds_used.load(Ordering::Relaxed)
    }
}

/// Online rounds-per-second calibration for wall-clock budgets.
///
/// Operators think in milliseconds; the engine's deterministic cut point
/// is a *round cap* ([`Budget::rounds`]). A `RoundCalibration` learns the
/// exchange rate online: feed it each epoch's observed `(rounds, seconds)`
/// via [`observe`](RoundCalibration::observe) and it maintains an EWMA of
/// seconds-per-round; [`rounds_for`](RoundCalibration::rounds_for) then
/// compiles a millisecond deadline into the round cap the budget can
/// afford. Callers should keep the wall-clock deadline as a belt-and-
/// braces second limit (both limits compose on one [`Budget`]), so a
/// stale EWMA can overshoot the deadline by at most the one round that
/// trips the deadline check.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundCalibration {
    secs_per_round: f64,
    observations: u64,
}

impl RoundCalibration {
    /// EWMA smoothing factor: each new observation contributes 20 %.
    pub const ALPHA: f64 = 0.2;

    /// Observations required before the calibration is trusted
    /// ([`is_primed`](RoundCalibration::is_primed)).
    pub const PRIME_OBSERVATIONS: u64 = 3;

    /// A fresh, unprimed calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one epoch's observed solve: `rounds` first-phase MIS/raise
    /// steps taking `seconds` of wall clock. Ignored unless both are
    /// positive (an empty or instantaneous solve carries no signal).
    ///
    /// **Feed full solves only.** An epoch's wall clock carries fixed
    /// per-epoch overhead (second-phase replay, certificate fold) on top
    /// of the per-round cost; a deadline-truncated epoch divides that
    /// overhead by an artificially small round count, inflating the
    /// sample. Under sustained overload the feedback loop ratchets: an
    /// inflated EWMA compiles a smaller cap, the next epoch cuts even
    /// earlier, its sample is worse still, and
    /// [`rounds_for`](RoundCalibration::rounds_for) collapses toward its
    /// floor of 1 (reproduced in this module's
    /// `truncated_samples_ratchet_compiled_caps_downward` test). The
    /// serving tier therefore only observes epochs whose certificate
    /// quality [is full](CertificateQuality::is_full).
    pub fn observe(&mut self, rounds: u64, seconds: f64) {
        if rounds == 0 || seconds <= 0.0 || seconds.is_nan() {
            return;
        }
        let sample = seconds / rounds as f64;
        self.secs_per_round = if self.observations == 0 {
            sample
        } else {
            Self::ALPHA * sample + (1.0 - Self::ALPHA) * self.secs_per_round
        };
        self.observations += 1;
    }

    /// Number of observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// `true` once enough observations arrived to trust the EWMA.
    pub fn is_primed(&self) -> bool {
        self.observations >= Self::PRIME_OBSERVATIONS
    }

    /// The learned EWMA of seconds per first-phase round (`None` until
    /// [`is_primed`](RoundCalibration::is_primed)).
    pub fn secs_per_round(&self) -> Option<f64> {
        self.is_primed().then_some(self.secs_per_round)
    }

    /// Compiles a wall-clock budget into the round cap it affords at the
    /// learned rate, at least 1 (`None` until primed — fall back to a
    /// plain deadline budget).
    pub fn rounds_for(&self, budget: Duration) -> Option<u64> {
        let rate = self.secs_per_round()?;
        // The relative epsilon keeps float jitter from turning an exact
        // quotient (10 rounds affordable) into its floor minus one.
        let affordable = (budget.as_secs_f64() / rate) * (1.0 + 1e-9);
        Some((affordable.floor() as u64).max(1))
    }
}

/// How complete a solution's dual certificate is.
///
/// `Full` is the normal outcome: the first phase ran until every eligible
/// instance was λ-satisfied, so the certificate carries the solver's
/// worst-case guarantee. `Truncated` means a [`Budget`] cut the first
/// phase early: the schedule is still feasible and
/// `optimum_upper_bound` is still a **valid** bound (weak duality), but λ
/// may sit below `1 − ε` and the certified ratio may exceed the
/// guarantee. A warm engine carries the unfinished repair work forward in
/// its [`WarmState`](crate::WarmState) — an un-budgeted follow-up epoch
/// reconverges to full certification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CertificateQuality {
    /// The first phase ran to full λ-certification.
    #[default]
    Full,
    /// A budget cut the first phase early.
    Truncated {
        /// First-phase (group × stage) slots not yet drained at the cut —
        /// a deterministic, unit-free measure of the work skipped
        /// (`0` only when the cut landed inside the very last stage).
        rounds_left: u64,
    },
}

impl CertificateQuality {
    /// `true` for [`CertificateQuality::Full`].
    pub fn is_full(&self) -> bool {
        matches!(self, CertificateQuality::Full)
    }

    /// `true` for [`CertificateQuality::Truncated`].
    pub fn is_truncated(&self) -> bool {
        !self.is_full()
    }

    /// Combines the qualities of two sub-solves (the wide/narrow
    /// combination): full only when both halves are full; truncated
    /// remainders add.
    pub fn merge(self, other: Self) -> Self {
        use CertificateQuality::*;
        match (self, other) {
            (Full, Full) => Full,
            (Truncated { rounds_left: a }, Truncated { rounds_left: b }) => {
                Truncated { rounds_left: a + b }
            }
            (Truncated { rounds_left }, Full) | (Full, Truncated { rounds_left }) => {
                Truncated { rounds_left }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces the truncation ratchet the serving tier guards against:
    /// a simulated engine with fixed per-epoch overhead, calibrated from
    /// its own deadline-cut epochs, compiles ever-smaller round caps until
    /// the cap collapses to the floor — while the same engine calibrated
    /// from full solves only holds a stable cap.
    #[test]
    fn truncated_samples_ratchet_compiled_caps_downward() {
        // Engine model: 5 ms of fixed overhead per epoch (replay,
        // certificate fold) plus 0.1 ms per first-phase round. A full
        // solve takes 100 rounds (15 ms); the 6 ms deadline affords a
        // 40-round cap at the honest full-solve rate of 0.15 ms/round.
        // Feeding cut epochs back attributes the 5 ms overhead to ever
        // fewer rounds (fixed point: 0.6 ms/round → a 10-round cap).
        const OVERHEAD_S: f64 = 5e-3;
        const PER_ROUND_S: f64 = 1e-4;
        const FULL_ROUNDS: u64 = 100;
        let deadline = Duration::from_millis(6);
        let epoch_secs = |rounds: u64| OVERHEAD_S + rounds as f64 * PER_ROUND_S;

        // Prime both calibrations identically from three full solves.
        let mut biased = RoundCalibration::new();
        let mut gated = RoundCalibration::new();
        for _ in 0..RoundCalibration::PRIME_OBSERVATIONS {
            biased.observe(FULL_ROUNDS, epoch_secs(FULL_ROUNDS));
            gated.observe(FULL_ROUNDS, epoch_secs(FULL_ROUNDS));
        }
        let initial_cap = biased.rounds_for(deadline).expect("primed");
        assert!(initial_cap > 10, "the deadline affords real work");

        // Sustained overload: every epoch is cut at its compiled cap, and
        // the *biased* calibration feeds those truncated epochs back. The
        // overhead is attributed to fewer and fewer rounds each time.
        let mut cap = initial_cap;
        let mut caps = vec![cap];
        for _ in 0..40 {
            let rounds = cap.min(FULL_ROUNDS);
            biased.observe(rounds, epoch_secs(rounds));
            cap = biased.rounds_for(deadline).expect("still primed");
            caps.push(cap);
        }
        assert!(
            caps.windows(2).all(|w| w[1] <= w[0]),
            "the biased cap must ratchet monotonically downward: {caps:?}"
        );
        assert!(
            *caps.last().unwrap() < initial_cap / 2,
            "40 overloaded epochs must collapse the biased cap \
             (started {initial_cap}, ended {})",
            caps.last().unwrap()
        );

        // The gated calibration (full solves only — what the session does
        // since the fix) never observes a cut epoch, so overload leaves
        // its compiled cap untouched.
        let gated_cap = gated.rounds_for(deadline).expect("primed");
        for _ in 0..40 {
            // Cut epochs happen, but are *not* observed.
        }
        assert_eq!(gated.rounds_for(deadline), Some(gated_cap));
        assert_eq!(gated_cap, initial_cap);

        // And interleaved recovery epochs (full solves) keep the gated
        // EWMA pinned at the true rate.
        gated.observe(FULL_ROUNDS, epoch_secs(FULL_ROUNDS));
        let recovered = gated.rounds_for(deadline).expect("primed");
        assert!(
            recovered >= initial_cap.saturating_sub(1),
            "full-solve samples must not erode the cap: {recovered} vs {initial_cap}"
        );
    }

    #[test]
    fn unlimited_budgets_never_cut() {
        let budget = Budget::unlimited();
        assert!(!budget.is_limited());
        for _ in 0..10_000 {
            assert!(budget.consume_round());
        }
        // Unlimited budgets skip accounting entirely.
        assert_eq!(budget.rounds_used(), 0);
    }

    #[test]
    fn round_caps_cut_after_exactly_the_cap() {
        let budget = Budget::rounds(3);
        assert!(budget.is_limited());
        assert!(budget.consume_round());
        assert!(budget.consume_round());
        assert!(budget.consume_round());
        assert!(!budget.consume_round());
        assert!(!budget.consume_round());
    }

    #[test]
    fn zero_round_budgets_cut_immediately() {
        let budget = Budget::rounds(0);
        assert!(!budget.consume_round());
    }

    #[test]
    fn elapsed_deadlines_cut() {
        let budget = Budget::deadline(Duration::ZERO);
        assert!(!budget.consume_round());
        let generous = Budget::deadline(Duration::from_secs(3600));
        assert!(generous.consume_round());
    }

    #[test]
    fn calibration_converges_and_compiles_deadlines_to_round_caps() {
        let mut calib = RoundCalibration::new();
        assert!(!calib.is_primed());
        assert_eq!(calib.rounds_for(Duration::from_millis(10)), None);
        // Degenerate observations carry no signal.
        calib.observe(0, 1.0);
        calib.observe(10, 0.0);
        assert_eq!(calib.observations(), 0);
        // A steady 1 ms/round rate: the EWMA converges to it exactly.
        for _ in 0..20 {
            calib.observe(50, 0.050);
        }
        assert!(calib.is_primed());
        let rate = calib.secs_per_round().unwrap();
        assert!((rate - 1e-3).abs() < 1e-12, "rate = {rate}");
        assert_eq!(calib.rounds_for(Duration::from_millis(10)), Some(10));
        // Even a tiny budget affords at least one round.
        assert_eq!(calib.rounds_for(Duration::from_micros(10)), Some(1));
        // A rate shift is tracked: after enough 2 ms/round epochs the cap
        // halves.
        for _ in 0..60 {
            calib.observe(50, 0.100);
        }
        let rate = calib.secs_per_round().unwrap();
        assert!((rate - 2e-3).abs() < 1e-4, "rate = {rate}");
        assert_eq!(calib.rounds_for(Duration::from_millis(10)), Some(5));
    }

    #[test]
    fn quality_merge_is_commutative_and_adds_remainders() {
        use CertificateQuality::*;
        assert_eq!(Full.merge(Full), Full);
        assert_eq!(
            Full.merge(Truncated { rounds_left: 2 }),
            Truncated { rounds_left: 2 }
        );
        assert_eq!(
            Truncated { rounds_left: 2 }.merge(Truncated { rounds_left: 3 }),
            Truncated { rounds_left: 5 }
        );
        assert!(Truncated { rounds_left: 0 }.is_truncated());
        assert!(Full.is_full());
    }
}
