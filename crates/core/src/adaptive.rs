//! Self-adaptive replication policies — the paper's future work (§5):
//! "Future research consists of defining self-adaptive policies by which
//! implementation parameters can be changed dynamically."
//!
//! [`AdaptiveController`] watches an object's write rate over a sliding
//! window and switches between two policies at hysteresis thresholds:
//! the §3.3 rule, automated. Drive it from whatever loop owns the
//! runtime (examples, the workload driver, or an operator task).

use std::collections::VecDeque;
use std::time::Duration;

use globe_net::SimTime;

use crate::ReplicationPolicy;

/// Which of the controller's two regimes is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Seldom-modified: immediate propagation ("an immediate coherence
    /// transfer type avoids unnecessary network traffic").
    Cold,
    /// Often-modified: lazy aggregation ("several updates are
    /// aggregated").
    Hot,
}

/// A two-regime adaptive policy with hysteresis.
///
/// # Examples
///
/// ```
/// use globe_core::{AdaptiveController, ReplicationPolicy, Regime};
/// use globe_net::SimTime;
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut controller = AdaptiveController::new(
///     ReplicationPolicy::builder(globe_coherence::ObjectModel::Fifo).immediate().build()?,
///     ReplicationPolicy::builder(globe_coherence::ObjectModel::Fifo)
///         .lazy(Duration::from_secs(2)).build()?,
///     1.0, // go hot above 1 write/s
///     0.2, // go cold below 0.2 write/s
///     Duration::from_secs(10),
/// );
/// assert_eq!(controller.regime(), Regime::Cold);
/// // A burst of writes flips it to the lazy (hot) policy.
/// let mut now = SimTime::ZERO;
/// for _ in 0..30 {
///     now = now + Duration::from_millis(200);
///     controller.record_write(now);
/// }
/// assert!(controller.evaluate(now).is_some());
/// assert_eq!(controller.regime(), Regime::Hot);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    cold_policy: ReplicationPolicy,
    hot_policy: ReplicationPolicy,
    go_hot_above: f64,
    go_cold_below: f64,
    window: Duration,
    writes: VecDeque<SimTime>,
    regime: Regime,
}

impl AdaptiveController {
    /// Creates a controller starting in the cold regime.
    ///
    /// `go_hot_above` and `go_cold_below` are write rates (writes per
    /// second over `window`); keeping them apart provides hysteresis so
    /// the policy does not flap.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are not `go_cold_below <= go_hot_above`
    /// or the window is zero.
    pub fn new(
        cold_policy: ReplicationPolicy,
        hot_policy: ReplicationPolicy,
        go_hot_above: f64,
        go_cold_below: f64,
        window: Duration,
    ) -> Self {
        assert!(
            go_cold_below <= go_hot_above,
            "hysteresis thresholds must not cross"
        );
        assert!(!window.is_zero(), "window must be non-zero");
        AdaptiveController {
            cold_policy,
            hot_policy,
            go_hot_above,
            go_cold_below,
            window,
            writes: VecDeque::new(),
            regime: Regime::Cold,
        }
    }

    /// The active regime.
    pub fn regime(&self) -> Regime {
        self.regime
    }

    /// The policy for the active regime.
    pub fn active_policy(&self) -> &ReplicationPolicy {
        match self.regime {
            Regime::Cold => &self.cold_policy,
            Regime::Hot => &self.hot_policy,
        }
    }

    /// Records one write at `now`.
    pub fn record_write(&mut self, now: SimTime) {
        self.writes.push_back(now);
        self.expire(now);
    }

    fn expire(&mut self, now: SimTime) {
        while let Some(&front) = self.writes.front() {
            if now.saturating_since(front) > self.window {
                self.writes.pop_front();
            } else {
                break;
            }
        }
    }

    /// The observed write rate over the window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> f64 {
        self.expire(now);
        self.writes.len() as f64 / self.window.as_secs_f64()
    }

    /// Re-evaluates the regime. Returns the policy to install when a
    /// switch is warranted, `None` otherwise. The caller applies it with
    /// [`crate::GlobeRuntime::set_policy`], on any backend.
    pub fn evaluate(&mut self, now: SimTime) -> Option<ReplicationPolicy> {
        let rate = self.rate(now);
        let next = match self.regime {
            Regime::Cold if rate > self.go_hot_above => Regime::Hot,
            Regime::Hot if rate < self.go_cold_below => Regime::Cold,
            current => current,
        };
        if next != self.regime {
            self.regime = next;
            Some(self.active_policy().clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use globe_coherence::ObjectModel;

    use super::*;

    fn controller() -> AdaptiveController {
        AdaptiveController::new(
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .immediate()
                .build()
                .unwrap(),
            ReplicationPolicy::builder(ObjectModel::Fifo)
                .lazy(Duration::from_secs(2))
                .build()
                .unwrap(),
            1.0,
            0.2,
            Duration::from_secs(10),
        )
    }

    fn t(secs_tenths: u64) -> SimTime {
        SimTime::from_millis(secs_tenths * 100)
    }

    #[test]
    fn starts_cold_and_heats_up_on_bursts() {
        let mut c = controller();
        assert_eq!(c.regime(), Regime::Cold);
        assert_eq!(c.active_policy().instant, crate::TransferInstant::Immediate);
        // 15 writes in 3 seconds: 1.5 w/s > 1.0.
        for i in 0..15 {
            c.record_write(t(i * 2));
        }
        let switched = c.evaluate(t(30));
        assert!(switched.is_some());
        assert_eq!(c.regime(), Regime::Hot);
        assert_eq!(c.active_policy().instant, crate::TransferInstant::Lazy);
    }

    #[test]
    fn cools_down_when_writes_stop() {
        let mut c = controller();
        for i in 0..15 {
            c.record_write(t(i));
        }
        assert!(c.evaluate(t(15)).is_some());
        assert_eq!(c.regime(), Regime::Hot);
        // 60 seconds of silence: far below the 0.2 w/s floor.
        let switched = c.evaluate(t(15) + Duration::from_secs(60));
        assert!(switched.is_some());
        assert_eq!(c.regime(), Regime::Cold);
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut c = controller();
        // 0.5 w/s: between the two thresholds — stays cold.
        for i in 0..5 {
            c.record_write(SimTime::from_secs(i * 2));
        }
        assert!(c.evaluate(SimTime::from_secs(10)).is_none());
        assert_eq!(c.regime(), Regime::Cold);
        // Heat up…
        for i in 0..20 {
            c.record_write(SimTime::from_secs(10) + Duration::from_millis(i * 100));
        }
        assert!(c.evaluate(SimTime::from_secs(12)).is_some());
        // …then the same in-between rate keeps it hot (no flap).
        let mut now = SimTime::from_secs(12);
        for _ in 0..5 {
            now += Duration::from_secs(2);
            c.record_write(now);
        }
        assert!(c.evaluate(now).is_none());
        assert_eq!(c.regime(), Regime::Hot);
    }

    #[test]
    fn rate_is_windowed() {
        let mut c = controller();
        for i in 0..10 {
            c.record_write(SimTime::from_secs(i));
        }
        assert!(c.rate(SimTime::from_secs(10)) > 0.9);
        // Everything expires after a long gap.
        assert_eq!(c.rate(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn crossed_thresholds_panic() {
        let _ = AdaptiveController::new(
            ReplicationPolicy::personal_home_page(),
            ReplicationPolicy::magazine(),
            0.1,
            1.0,
            Duration::from_secs(1),
        );
    }
}
