//! The event taxonomy: everything a sink can receive, with a stable JSONL
//! wire form.
//!
//! Events are deliberately *closed* enums, not free-form strings: the
//! aggregator indexes by discriminant (no hashing on the hot path), the
//! JSONL schema is enumerable, and the schema-validation test can parse
//! every emitted line back into [`TraceEvent`] without a grammar. Adding an
//! instrumentation point means adding a variant here — the summary tables,
//! the JSONL round trip, and the validator all pick it up from the `ALL`
//! arrays.

use crate::json::{self, JsonValue};

/// A span-style phase of an execution: what a wall-time measurement is
/// attributed to. One engine run nests phases (a `Round` contains `Send` /
/// `Receive`; a `Pipeline` contains everything), so phase
/// totals overlap by design — compare within a level, not across levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One whole synchronous round (serial runner and barrier engine).
    Round,
    /// The send half of a round: gathering every node's broadcast and
    /// counting the messages.
    Send,
    /// The receive half of a round: processing inboxes and re-evaluating
    /// outputs.
    Receive,
    /// One Lemma 4.2 sweep of the solver (dependency-wavefront class
    /// solves).
    Sweep,
    /// One logically-parallel solver recursion branch (a per-subspace
    /// residual or a per-class slack-β solve).
    SolverBranch,
    /// One end-to-end pipeline run (initial coloring + solve).
    Pipeline,
}

impl Phase {
    /// Every phase, in canonical rendering order.
    pub const ALL: [Phase; 6] = [
        Phase::Pipeline,
        Phase::Round,
        Phase::Send,
        Phase::Receive,
        Phase::Sweep,
        Phase::SolverBranch,
    ];

    /// Dense index for array-backed aggregation.
    pub(crate) fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).expect("in ALL")
    }

    /// The stable wire name (kebab-case).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Round => "round",
            Phase::Send => "send",
            Phase::Receive => "receive",
            Phase::Sweep => "sweep",
            Phase::SolverBranch => "solver-branch",
            Phase::Pipeline => "pipeline",
        }
    }

    /// Parses a wire name back (the inverse of [`Phase::as_str`]).
    pub fn from_str_name(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A named quantity: the subject of [`TraceEvent::Count`] (monotone totals,
/// summed by the aggregator) and of [`TraceEvent::Sample`] /
/// [`TraceEvent::SampleSummary`] (distributions, merged into
/// count/sum/min/max).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Counter {
    /// Messages delivered by one engine execution.
    Messages,
    /// Rounds executed by one engine execution (maximum halting round).
    Rounds,
    /// Peak resident set size of the process, snapshotted at run-scope
    /// finish (sampled, max-merged: concurrent scopes see one process).
    PeakRssBytes,
}

impl Counter {
    /// Every counter, in canonical rendering order.
    pub const ALL: [Counter; 3] = [Counter::Messages, Counter::Rounds, Counter::PeakRssBytes];

    /// Dense index for array-backed aggregation.
    pub(crate) fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|c| *c == self)
            .expect("in ALL")
    }

    /// The stable wire name (kebab-case).
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::Messages => "messages",
            Counter::Rounds => "rounds",
            Counter::PeakRssBytes => "peak-rss-bytes",
        }
    }

    /// Parses a wire name back (the inverse of [`Counter::as_str`]).
    pub fn from_str_name(s: &str) -> Option<Counter> {
        Counter::ALL.into_iter().find(|c| c.as_str() == s)
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured trace event. The JSONL wire form is one object per line,
/// discriminated by the `"ev"` key; [`TraceEvent::to_jsonl`] and
/// [`TraceEvent::from_jsonl`] round-trip exactly (the schema test pins
/// this), so any emitted file can be parsed back without a schema file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A completed phase with its wall time; `round` attributes per-round
    /// phases of round-structured engines.
    Span {
        /// What the wall time is attributed to.
        phase: Phase,
        /// The round number for round-structured phases.
        round: Option<u64>,
        /// Wall-clock duration of the phase in nanoseconds.
        nanos: u64,
    },
    /// A monotone total; the aggregator sums values per counter.
    Count {
        /// Which quantity.
        counter: Counter,
        /// The amount to add.
        value: u64,
    },
    /// One observation of a distribution; the aggregator merges it into
    /// count/sum/min/max per counter.
    Sample {
        /// Which distribution.
        counter: Counter,
        /// The observed value.
        value: u64,
    },
    /// A pre-aggregated batch of samples (used by engines that tally
    /// observations in worker-local accumulators and publish once).
    SampleSummary {
        /// Which distribution.
        counter: Counter,
        /// Number of observations in the batch.
        count: u64,
        /// Sum of the observations.
        sum: u64,
        /// Minimum observation.
        min: u64,
        /// Maximum observation.
        max: u64,
    },
}

impl TraceEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        match self {
            TraceEvent::Span {
                phase,
                round,
                nanos,
            } => match round {
                Some(r) => format!(
                    "{{\"ev\":\"span\",\"phase\":\"{}\",\"round\":{r},\"nanos\":{nanos}}}",
                    phase.as_str()
                ),
                None => format!(
                    "{{\"ev\":\"span\",\"phase\":\"{}\",\"nanos\":{nanos}}}",
                    phase.as_str()
                ),
            },
            TraceEvent::Count { counter, value } => format!(
                "{{\"ev\":\"count\",\"counter\":\"{}\",\"value\":{value}}}",
                counter.as_str()
            ),
            TraceEvent::Sample { counter, value } => format!(
                "{{\"ev\":\"sample\",\"counter\":\"{}\",\"value\":{value}}}",
                counter.as_str()
            ),
            TraceEvent::SampleSummary {
                counter,
                count,
                sum,
                min,
                max,
            } => format!(
                "{{\"ev\":\"sample-summary\",\"counter\":\"{}\",\"count\":{count},\
                 \"sum\":{sum},\"min\":{min},\"max\":{max}}}",
                counter.as_str()
            ),
        }
    }

    /// Parses one JSON line back into an event.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first schema violation: not an
    /// object, unknown `"ev"` discriminator, unknown phase/counter name,
    /// missing or mistyped field, or an unexpected extra field.
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, String> {
        let fields = json::parse_object(line)?;
        let get = |key: &str| -> Result<&JsonValue, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            match get(key)? {
                JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
                other => Err(format!(
                    "field {key:?} must be a non-negative integer, got {other:?}"
                )),
            }
        };
        let get_str = |key: &str| -> Result<&str, String> {
            match get(key)? {
                JsonValue::String(s) => Ok(s.as_str()),
                other => Err(format!("field {key:?} must be a string, got {other:?}")),
            }
        };
        let expect_fields = |allowed: &[&str]| -> Result<(), String> {
            for (k, _) in &fields {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!("unexpected field {k:?}"));
                }
            }
            Ok(())
        };
        let counter_of = |raw: &str| -> Result<Counter, String> {
            Counter::from_str_name(raw).ok_or_else(|| format!("unknown counter {raw:?}"))
        };
        match get_str("ev")? {
            "span" => {
                expect_fields(&["ev", "phase", "round", "nanos"])?;
                let raw = get_str("phase")?;
                let phase =
                    Phase::from_str_name(raw).ok_or_else(|| format!("unknown phase {raw:?}"))?;
                let round = if fields.iter().any(|(k, _)| k == "round") {
                    Some(get_u64("round")?)
                } else {
                    None
                };
                Ok(TraceEvent::Span {
                    phase,
                    round,
                    nanos: get_u64("nanos")?,
                })
            }
            "count" => {
                expect_fields(&["ev", "counter", "value"])?;
                Ok(TraceEvent::Count {
                    counter: counter_of(get_str("counter")?)?,
                    value: get_u64("value")?,
                })
            }
            "sample" => {
                expect_fields(&["ev", "counter", "value"])?;
                Ok(TraceEvent::Sample {
                    counter: counter_of(get_str("counter")?)?,
                    value: get_u64("value")?,
                })
            }
            "sample-summary" => {
                expect_fields(&["ev", "counter", "count", "sum", "min", "max"])?;
                Ok(TraceEvent::SampleSummary {
                    counter: counter_of(get_str("counter")?)?,
                    count: get_u64("count")?,
                    sum: get_u64("sum")?,
                    min: get_u64("min")?,
                    max: get_u64("max")?,
                })
            }
            other => Err(format!("unknown event discriminator {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_for_every_variant() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_str_name(p.as_str()), Some(p));
        }
        for c in Counter::ALL {
            assert_eq!(Counter::from_str_name(c.as_str()), Some(c));
        }
        assert_eq!(Phase::from_str_name("warp"), None);
        assert_eq!(Counter::from_str_name("bogons"), None);
    }

    #[test]
    fn jsonl_round_trips_every_event_shape() {
        let events = vec![
            TraceEvent::Span {
                phase: Phase::Send,
                round: Some(17),
                nanos: 12_345,
            },
            TraceEvent::Span {
                phase: Phase::Pipeline,
                round: None,
                nanos: u64::MAX >> 12,
            },
            TraceEvent::Count {
                counter: Counter::Messages,
                value: 0,
            },
            TraceEvent::Sample {
                counter: Counter::PeakRssBytes,
                value: 1 << 30,
            },
            TraceEvent::SampleSummary {
                counter: Counter::PeakRssBytes,
                count: 10,
                sum: 30,
                min: 1,
                max: 5,
            },
        ];
        for ev in events {
            let line = ev.to_jsonl();
            let back = TraceEvent::from_jsonl(&line).expect("line parses");
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_structured_errors() {
        for (line, needle) in [
            ("", "object"),
            ("[1,2]", "object"),
            ("{\"ev\":\"warp\"}", "unknown event"),
            (
                "{\"ev\":\"span\",\"phase\":\"warp\",\"nanos\":1}",
                "unknown phase",
            ),
            ("{\"ev\":\"span\",\"nanos\":1}", "missing field"),
            (
                "{\"ev\":\"count\",\"counter\":\"messages\"}",
                "missing field",
            ),
            (
                "{\"ev\":\"count\",\"counter\":\"bogons\",\"value\":1}",
                "unknown counter",
            ),
            (
                "{\"ev\":\"count\",\"counter\":\"messages\",\"value\":-1}",
                "non-negative",
            ),
            (
                "{\"ev\":\"count\",\"counter\":\"messages\",\"value\":1,\"extra\":2}",
                "unexpected field",
            ),
            (
                "{\"ev\":\"span\",\"phase\":\"send\",\"nanos\":1.5}",
                "non-negative integer",
            ),
        ] {
            let err = TraceEvent::from_jsonl(line).unwrap_err();
            assert!(err.contains(needle), "line {line:?}: {err}");
        }
    }
}
