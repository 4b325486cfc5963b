//! Output checks. Every coloring a run produces is checked; a failed check
//! counts toward the run's `failed` total and its `ok_frac`.

use deco::core_alg::solver::RunReport;
use deco::graph::coloring::{check_edge_coloring, EdgeColoring};
use deco::graph::Graph;
use deco::UpdateReport;

/// The `2Δ − 1` palette: every edge's list in the classic instance.
pub fn palette(g: &Graph) -> u32 {
    (2 * g.max_degree()).saturating_sub(1).max(1) as u32
}

/// Complete, proper, and on-list: every color inside the `2Δ − 1` palette.
pub fn coloring(g: &Graph, colors: &EdgeColoring) -> Result<(), String> {
    check_edge_coloring(g, colors).map_err(|v| v.to_string())?;
    match colors.max_color() {
        Some(c) if c >= palette(g) => Err(format!(
            "color {c} outside the 2Δ−1 palette of size {}",
            palette(g)
        )),
        _ => Ok(()),
    }
}

/// What must repeat exactly every time one graph is solved, on any engine
/// and over the wire: the colors, the rounds and the messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub colors: Vec<Option<u32>>,
    pub rounds: u64,
    pub messages: u64,
}

impl Reference {
    pub fn of(report: &RunReport) -> Reference {
        Reference {
            colors: report.colors.as_slice().to_vec(),
            rounds: report.rounds,
            messages: report.messages,
        }
    }

    /// Checks a later solve of the same graph against this one.
    pub fn matches(
        &self,
        colors: &[Option<u32>],
        rounds: u64,
        messages: u64,
    ) -> Result<(), String> {
        if rounds != self.rounds || messages != self.messages {
            return Err(format!(
                "rounds/messages {rounds}/{messages} differ from the reference {}/{}",
                self.rounds, self.messages
            ));
        }
        if colors != self.colors.as_slice() {
            return Err("colors differ from the reference solve".into());
        }
        Ok(())
    }
}

/// Checks a solve: a valid coloring, and the same observables as the first
/// solve of this graph (which becomes the reference when there is none).
pub fn solve(
    g: &Graph,
    report: &RunReport,
    reference: &mut Option<Reference>,
) -> Result<(), String> {
    coloring(g, &report.colors)?;
    match reference {
        Some(r) => r.matches(report.colors.as_slice(), report.rounds, report.messages),
        None => {
            *reference = Some(Reference::of(report));
            Ok(())
        }
    }
}

/// Checks an update's repair: the palette stays within its bound, and the
/// repair stayed on the greedy path (escalation is unreachable at 2Δ−1).
pub fn update(r: &UpdateReport) -> Result<(), String> {
    if r.palette_max > r.palette_bound {
        return Err(format!(
            "palette {} exceeds bound {}",
            r.palette_max, r.palette_bound
        ));
    }
    if r.escalated {
        return Err("repair escalated at the 2Δ−1 bound".into());
    }
    Ok(())
}

/// Folds one update's deterministic observables into a running digest, so
/// a served update trace can be compared with an in-process replay without
/// keeping every report.
pub fn fold_update(digest: u64, r: &UpdateReport) -> u64 {
    let (_, recolored, palette_max, palette_bound, escalated, messages) = r.observables();
    [
        recolored,
        u64::from(palette_max),
        u64::from(palette_bound),
        u64::from(escalated),
        messages,
    ]
    .iter()
    .fold(digest, |h, &x| {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17)
    })
}
