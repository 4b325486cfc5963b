//! `lem45` — the iterated color space reduction (Lemma 4.5): `k` chained
//! Lemma 4.3 steps shrink the palette geometrically, consuming a factor
//! `24·H_{2p}·log p` of slack per step; with slack `≥ req^k`, every
//! intermediate instance stays (deg+1)-feasible.

use crate::table::{fnum, Table};
use crate::workloads::greedy_assign;
use deco_algos::greedy;
use deco_core::instance::{self, ListInstance};
use deco_core::solver::space_requirement;
use deco_core::space;
use deco_graph::coloring::Color;
use deco_graph::generators;
use deco_runtime::Runtime;
use std::fmt::Write as _;

/// Runs the experiment and returns the report.
pub fn run(_rt: &Runtime) -> String {
    let mut out = String::from("# lem45 — iterated space reduction (Lemma 4.5)\n\n");
    // Parameters chosen so the whole k-step chain is *materially* feasible:
    // the initial lists must hold S·deg(e) colors, so S = req^k forces a
    // low-degree graph. d = 4 ⇒ deg(e) = 6; p = 2 ⇒ q = 2, req = 24·H₂ = 36;
    // k = 2 ⇒ S₀ = 1296 and lists of 1296·6+1 = 7777 ≤ C = 8192.
    let g = generators::random_regular(36, 4, 9);
    let p = 2u32;
    let k = 2u32;
    let c0 = 8192u32;
    let req0 = space_requirement(c0, p);
    let s0 = req0.powi(k as i32);
    let _ = writeln!(
        out,
        "graph: regular(36,4) (deg(e) = 6); C₀ = {c0}, p = {p}, k = {k}; \
         req(C₀,p) = {}, S₀ = req^{k} = {}\n",
        fnum(req0),
        fnum(s0)
    );
    let inst0 = instance::random_with_slack(&g, c0, s0, 10);
    let x: Vec<u32> = {
        let col = greedy::greedy_edge_coloring(&g, greedy::EdgeOrder::ById);
        g.edges().map(|e| col.get(e).unwrap()).collect()
    };

    let mut t = Table::new([
        "step",
        "max palette C_i",
        "instances",
        "min slack",
        "req(C_i,p)",
        "all (deg+1)?",
    ]);
    let mut current: Vec<(ListInstance, Vec<u32>)> = vec![(inst0, x)];
    let mut chain_ok = true;
    for step in 1..=k {
        let mut next: Vec<(ListInstance, Vec<u32>)> = Vec::new();
        let mut all_ok = true;
        let mut max_palette = 0u32;
        let mut min_slack = f64::INFINITY;
        for (inst, xc) in &current {
            if inst.graph().num_edges() == 0 {
                continue;
            }
            let red = space::reduce_color_space(inst, p, xc, &mut greedy_assign)
                .expect("reduction succeeds");
            for sub in red.sub_instances {
                all_ok &= sub.instance.validate_slack(1.0).is_ok();
                max_palette = max_palette.max(sub.instance.palette());
                min_slack = min_slack.min(sub.instance.min_slack());
                next.push((sub.instance, sub.x_coloring));
            }
        }
        chain_ok &= all_ok;
        t.row([
            step.to_string(),
            max_palette.to_string(),
            next.len().to_string(),
            fnum(min_slack),
            fnum(space_requirement(max_palette.max(2), p)),
            if all_ok {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
        current = next;
    }
    out.push_str(&t.render());

    // Close the loop: the leaves are (deg+1)-list instances over a halved-
    // twice palette; solve them greedily and lift back — every edge of the
    // chain must end with a color from its *original* list (restrictions
    // only ever intersect the list).
    let mut solved_edges = 0usize;
    for (inst, _) in &current {
        let lists: Vec<Vec<Color>> = inst.lists().iter().map(|l| l.to_vec()).collect();
        let coloring =
            greedy::greedy_list_edge_coloring(inst.graph(), &lists, greedy::EdgeOrder::ById)
                .expect("leaf instances are (deg+1)-feasible");
        assert!(coloring.is_complete());
        solved_edges += inst.graph().num_edges();
    }
    let _ = writeln!(
        out,
        "\nchain feasible end to end: {}; leaf instances solved: {solved_edges} edges \
         (= {} original edges, every leaf a (deg+1)-list instance).\n\n\
         With the paper's p = √Δ̄ and k = log_p C = 2c, the chain's total\n\
         slack requirement (24·H₂ₚ·log p)^k = O(log^{{4c}} Δ̄) is exactly the\n\
         β that Lemma 4.2 supplies — the coupling behind Theorem 4.1.",
        if chain_ok { "YES" } else { "NO" },
        g.num_edges(),
    );
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn chain_stays_feasible() {
        let r = super::run(&deco_runtime::Runtime::serial());
        assert!(r.contains("chain feasible end to end: YES"), "{r}");
    }
}
