//! `engine-shard` — the sharded engine across the scenario families:
//! partition quality (cut edges and cut-edge fraction per family and shard
//! count, read off the [`ShardPlan`]) next to typed [`ShardedExecutor`]
//! runs, and the four-way differential guarantee (serial ≡ barrier ≡ async
//! ≡ sharded, observationally) re-checked inline so the numbers can never
//! drift apart from a correctness bug silently.

use crate::table::Table;
use deco_engine::protocols::StaggeredSum;
use deco_engine::{
    AsyncExecutor, Executor, GraphSpec, IdFlavor, ParallelExecutor, Scenario, SerialExecutor,
    ShardPlan, ShardedExecutor,
};
use deco_runtime::Runtime;
use std::fmt::Write as _;
use std::time::Instant;

/// The scenario families the report sweeps (one spec per family, matrix
/// sizes, pinned base seed).
fn families() -> Vec<GraphSpec> {
    vec![
        GraphSpec::Cycle { n: 48 },
        GraphSpec::Grid { w: 8, h: 5 },
        GraphSpec::RandomRegular { n: 64, d: 8 },
        GraphSpec::Gnp { n: 80, p: 0.08 },
        GraphSpec::PowerLaw { n: 100 },
        GraphSpec::RandomTree { n: 90 },
        GraphSpec::TwoClusters { n: 24, d: 4 },
        GraphSpec::ManySmallComponents {
            components: 18,
            max_size: 7,
        },
    ]
}

/// Runs the experiment and returns the report.
pub fn run(_rt: &Runtime) -> String {
    let mut out =
        String::from("# engine-shard — sharded execution with cross-shard mailbox exchange\n\n");

    // Part 1: partition quality per family. Cut edges come from the
    // ShardPlan the sharded executor builds for the same graph and shard
    // count; every run is serial-oracled inline.
    out.push_str("## cut fraction per family (staggered-sum, typed shard threads)\n\n");
    let mut t = Table::new([
        "family",
        "shards",
        "nodes",
        "edges",
        "cut edges",
        "cut %",
        "rounds",
        "messages",
    ]);
    let mut worst_cut = 0.0f64;
    let protocol = StaggeredSum { spread: 7 };
    for spec in families() {
        let scenario = Scenario::new(spec, IdFlavor::Shuffled, 2026);
        let g = scenario.graph();
        let net = scenario.network(&g);
        let serial = SerialExecutor.execute(&net, &protocol, 100).unwrap();
        for shards in [2usize, 4] {
            let plan = ShardPlan::new(&g, shards);
            let run = ShardedExecutor::new(shards)
                .execute(&net, &protocol, 100)
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert_eq!(serial.outputs, run.outputs, "{}", scenario.name);
            assert_eq!(serial.rounds, run.rounds, "{}", scenario.name);
            assert_eq!(serial.messages, run.messages, "{}", scenario.name);
            worst_cut = worst_cut.max(plan.cut_fraction());
            t.row([
                scenario.spec.label(),
                plan.shards().to_string(),
                g.num_nodes().to_string(),
                g.num_edges().to_string(),
                plan.num_cut_edges().to_string(),
                format!("{:.1}%", plan.cut_fraction() * 100.0),
                run.rounds.to_string(),
                run.messages.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nEvery row is serial-oracled: outputs, rounds, and messages of the sharded\n\
         run are bit-identical to the serial runner. Only cut edges ever cross a\n\
         shard boundary — per round, at most two messages per cut edge enter the\n\
         exchange, everything else is shard-private. Worst cut fraction above:\n\
         {:.1}% (degree-balanced contiguous ranges; structured families cut in\n\
         O(shards) edges, dense random families approach the (k-1)/k ceiling).\n",
        worst_cut * 100.0
    );

    // Part 2: the four-way differential on one representative family,
    // including the in-process typed executor at threads-per-shard > 1.
    out.push_str("## four-way lineup (regular(64,8), staggered-sum)\n\n");
    let scenario = Scenario::new(
        GraphSpec::RandomRegular { n: 64, d: 8 },
        IdFlavor::Shuffled,
        7,
    );
    let g = scenario.graph();
    let net = scenario.network(&g);
    let protocol = StaggeredSum { spread: 9 };
    let serial = SerialExecutor.execute(&net, &protocol, 100).unwrap();
    let mut checked = 0usize;
    for (name, outcome) in [
        (
            "barrier/t=2",
            ParallelExecutor::with_threads(2)
                .execute(&net, &protocol, 100)
                .unwrap(),
        ),
        (
            "async/t=2",
            AsyncExecutor::with_threads(2)
                .execute(&net, &protocol, 100)
                .unwrap(),
        ),
        (
            "shard/s=2/t=2",
            ShardedExecutor::new(2)
                .with_threads_per_shard(2)
                .execute(&net, &protocol, 100)
                .unwrap(),
        ),
        (
            "shard/s=4/t=1",
            ShardedExecutor::new(4)
                .execute(&net, &protocol, 100)
                .unwrap(),
        ),
    ] {
        assert_eq!(serial.outputs, outcome.outputs, "{name}");
        assert_eq!(serial.rounds, outcome.rounds, "{name}");
        assert_eq!(serial.messages, outcome.messages, "{name}");
        checked += 1;
    }
    let _ = writeln!(
        out,
        "{checked} engines checked against the serial oracle — the sharded engine is a\n\
         drop-in `Executor`, so the whole algorithm stack (Linial, Luby, the\n\
         Theorem 4.1 solver) runs sharded unchanged.\n",
    );

    // Part 3: wall-clock, serial vs barrier vs sharded, on a larger graph.
    // With fewer cores than shards the sharded engine pays thread context
    // switches plus the exchange; the point of this table is honest
    // accounting, not a speedup claim.
    out.push_str("## wall-clock (regular(4000,16), flood r=4)\n\n");
    let big = GraphSpec::RandomRegular { n: 4000, d: 16 }.build(3);
    let plan2 = ShardPlan::new(&big, 2);
    let net = deco_local::Network::new(&big, deco_local::IdAssignment::Shuffled(5));
    let protocol = deco_engine::protocols::FloodMax { radius: 4 };
    let (ts, so) = time(|| SerialExecutor.execute(&net, &protocol, 50).unwrap());
    let (tb, sb) = time(|| {
        ParallelExecutor::auto()
            .execute(&net, &protocol, 50)
            .unwrap()
    });
    let (t2, s2) = time(|| {
        ShardedExecutor::new(2)
            .execute(&net, &protocol, 50)
            .unwrap()
    });
    let (t4, s4) = time(|| {
        ShardedExecutor::new(4)
            .execute(&net, &protocol, 50)
            .unwrap()
    });
    assert_eq!(so.outputs, sb.outputs);
    assert_eq!(so.outputs, s2.outputs);
    assert_eq!(so.outputs, s4.outputs);
    let mut t = Table::new(["executor", "time", "vs serial"]);
    for (name, d) in [
        ("serial", ts),
        ("engine-barrier", tb),
        ("sharded s=2", t2),
        ("sharded s=4", t4),
    ] {
        t.row([
            name.to_string(),
            format!("{d:.1?}"),
            format!("{:.2}x", ts.as_secs_f64() / d.as_secs_f64()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nCut fraction at 2 shards on this graph: {:.2}% ({} of {} edges). The\n\
         in-process sharded engine exists to prove the partition + ghost-port +\n\
         cut-exchange machinery under the full differential contract — see\n\
         `cargo test -p deco-engine --test differential`.\n",
        plan2.cut_fraction() * 100.0,
        plan2.num_cut_edges(),
        big.num_edges(),
    );
    out
}

fn time<T>(f: impl FnOnce() -> T) -> (std::time::Duration, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed(), value)
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_covers_cut_fraction_and_lineup() {
        let r = super::run(&deco_runtime::Runtime::serial());
        assert!(r.contains("cut fraction per family"));
        assert!(r.contains("cut %"));
        assert!(r.contains("four-way lineup"));
        assert!(r.contains("wall-clock"));
    }
}
