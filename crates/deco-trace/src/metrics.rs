//! Aggregation of raw events into a [`MetricsReport`].
//!
//! The aggregator is array-backed and indexed by enum discriminant — no
//! hashing, no allocation per event — so keeping it up to date alongside an
//! active sink stays cheap even on per-round hot paths. A report is the
//! *digested* view (totals per phase/counter, count/sum/min/max per
//! sample); the raw event stream, if wanted, comes from the ring or JSONL
//! sink.

use crate::event::{Counter, Phase, TraceEvent};

/// Wall-time total for one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// Which phase.
    pub phase: Phase,
    /// Number of spans recorded for it.
    pub count: u64,
    /// Total wall time across those spans, in nanoseconds.
    pub total_nanos: u64,
}

/// Running total for one counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterStat {
    /// Which counter.
    pub counter: Counter,
    /// Sum of all recorded values.
    pub value: u64,
}

/// Distribution summary for one sampled counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleStat {
    /// Which distribution.
    pub counter: Counter,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Minimum observation.
    pub min: u64,
    /// Maximum observation.
    pub max: u64,
}

impl SampleStat {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Digested metrics of one traced run: per-phase wall time, counter totals,
/// and sample distributions. Embedded in `deco-core`'s `RunReport` when
/// tracing is enabled; rendered by [`crate::summary`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Phases with at least one span, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
    /// Counters with at least one count, in [`Counter::ALL`] order.
    pub counters: Vec<CounterStat>,
    /// Sampled counters with at least one observation, in
    /// [`Counter::ALL`] order.
    pub samples: Vec<SampleStat>,
}

impl MetricsReport {
    /// The stat for `phase`, if any span was recorded.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// The total for `counter`, if any count was recorded.
    pub fn counter(&self, counter: Counter) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.counter == counter)
            .map(|c| c.value)
    }

    /// The distribution for `counter`, if any sample was recorded.
    pub fn sample(&self, counter: Counter) -> Option<&SampleStat> {
        self.samples.iter().find(|s| s.counter == counter)
    }

    /// True when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty() && self.samples.is_empty()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SampleAcc {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Array-backed accumulator turning an event stream into a
/// [`MetricsReport`].
#[derive(Debug, Default)]
pub struct Aggregator {
    span_count: [u64; Phase::ALL.len()],
    span_nanos: [u64; Phase::ALL.len()],
    counts: [u64; Counter::ALL.len()],
    counted: [bool; Counter::ALL.len()],
    samples: [SampleAcc; Counter::ALL.len()],
}

impl Aggregator {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Folds one event into the running totals.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Span { phase, nanos, .. } => {
                let i = phase.index();
                self.span_count[i] += 1;
                self.span_nanos[i] = self.span_nanos[i].saturating_add(*nanos);
            }
            TraceEvent::Count { counter, value } => {
                let i = counter.index();
                self.counts[i] = self.counts[i].saturating_add(*value);
                self.counted[i] = true;
            }
            TraceEvent::Sample { counter, value } => {
                let acc = &mut self.samples[counter.index()];
                if acc.count == 0 {
                    *acc = SampleAcc {
                        count: 1,
                        sum: *value,
                        min: *value,
                        max: *value,
                    };
                } else {
                    acc.count += 1;
                    acc.sum = acc.sum.saturating_add(*value);
                    acc.min = acc.min.min(*value);
                    acc.max = acc.max.max(*value);
                }
            }
        }
    }

    /// Snapshots the totals into a report (only touched phases/counters
    /// appear).
    pub fn report(&self) -> MetricsReport {
        let phases = Phase::ALL
            .into_iter()
            .filter(|p| self.span_count[p.index()] > 0)
            .map(|p| PhaseStat {
                phase: p,
                count: self.span_count[p.index()],
                total_nanos: self.span_nanos[p.index()],
            })
            .collect();
        let counters = Counter::ALL
            .into_iter()
            .filter(|c| self.counted[c.index()])
            .map(|c| CounterStat {
                counter: c,
                value: self.counts[c.index()],
            })
            .collect();
        let samples = Counter::ALL
            .into_iter()
            .filter(|c| self.samples[c.index()].count > 0)
            .map(|c| {
                let acc = self.samples[c.index()];
                SampleStat {
                    counter: c,
                    count: acc.count,
                    sum: acc.sum,
                    min: acc.min,
                    max: acc.max,
                }
            })
            .collect();
        MetricsReport {
            phases,
            counters,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_aggregator_yields_empty_report() {
        let report = Aggregator::new().report();
        assert!(report.is_empty());
        assert_eq!(report.counter(Counter::Messages), None);
        assert!(report.phase(Phase::Round).is_none());
        assert!(report.sample(Counter::PeakRssBytes).is_none());
    }

    #[test]
    fn spans_counts_and_samples_aggregate() {
        let mut agg = Aggregator::new();
        agg.observe(&TraceEvent::Span {
            phase: Phase::Round,
            round: Some(0),
            nanos: 10,
        });
        agg.observe(&TraceEvent::Span {
            phase: Phase::Round,
            round: Some(1),
            nanos: 30,
        });
        agg.observe(&TraceEvent::Count {
            counter: Counter::Messages,
            value: 5,
        });
        agg.observe(&TraceEvent::Count {
            counter: Counter::Messages,
            value: 7,
        });
        agg.observe(&TraceEvent::Count {
            counter: Counter::Rounds,
            value: 0,
        });
        agg.observe(&TraceEvent::Sample {
            counter: Counter::PeakRssBytes,
            value: 3,
        });
        agg.observe(&TraceEvent::Sample {
            counter: Counter::PeakRssBytes,
            value: 1,
        });
        agg.observe(&TraceEvent::Sample {
            counter: Counter::PeakRssBytes,
            value: 8,
        });
        let report = agg.report();
        let round = report.phase(Phase::Round).unwrap();
        assert_eq!((round.count, round.total_nanos), (2, 40));
        assert_eq!(report.counter(Counter::Messages), Some(12));
        // A zero-valued count still registers the counter as present.
        assert_eq!(report.counter(Counter::Rounds), Some(0));
        let rss = report.sample(Counter::PeakRssBytes).unwrap();
        assert_eq!((rss.count, rss.sum, rss.min, rss.max), (3, 12, 1, 8));
        assert_eq!(rss.mean(), 4.0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut agg = Aggregator::new();
        agg.observe(&TraceEvent::Count {
            counter: Counter::Messages,
            value: 1,
        });
        agg.reset();
        assert!(agg.report().is_empty());
    }
}
