//! Property-based tests on the core invariants, driven by seeded random
//! graphs, lists, and partitions.
//!
//! Hand-rolled property loops instead of the `proptest` crate (unavailable
//! offline): each property runs a fixed number of cases derived from a
//! deterministic master RNG, so failures are exactly reproducible — the
//! failing case prints its seed, and rerunning hits the same case.

use deco::core_alg::defective::{defect_bound, defective_edge_coloring, defective_palette};
use deco::core_alg::instance;
use deco::core_alg::lists::{lemma44_witness, level_of, ColorList, SubspacePartition};
use deco::core_alg::solver::{solve_pipeline, SolverConfig};
use deco::graph::{coloring, generators, Graph};
use deco::local::math::harmonic;
use deco::Runtime;
use rand::prelude::*;

const CASES: u64 = 48;

/// Random simple graph: G(n, m) with bounded size, seeded per case.
fn arb_graph(rng: &mut StdRng) -> Graph {
    let n = rng.gen_range(3..40usize);
    let max_m = n * (n - 1) / 2;
    let m = rng.gen_range(0..(2 * n)).min(max_m);
    generators::gnm(n, m, rng.gen_range(0..u64::MAX))
}

/// Runs `body` for `CASES` deterministic cases, labelling failures by case
/// seed.
fn for_cases(master_seed: u64, body: impl Fn(u64, &mut StdRng)) {
    for case in 0..CASES {
        let case_seed = master_seed ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(case_seed);
        body(case_seed, &mut rng);
    }
}

#[test]
fn solver_always_produces_valid_list_colorings() {
    for_cases(0xDEC0_0001, |case_seed, rng| {
        let g = arb_graph(rng);
        if g.num_edges() == 0 {
            return;
        }
        let seed = rng.gen_range(0..u64::MAX);
        let palette = g.max_edge_degree() as u32 + 1 + (seed % 7) as u32;
        let inst = instance::random_deg_plus_one(&g, palette, seed);
        let ids: Vec<u64> = (1..=g.num_nodes() as u64).collect();
        let res = solve_pipeline(
            &g,
            inst.clone(),
            &ids,
            SolverConfig::default(),
            &Runtime::serial(),
        )
        .expect("solver succeeds");
        assert!(
            inst.check_solution(&res.colors).is_ok(),
            "invalid coloring for case seed {case_seed}"
        );
    });
}

#[test]
fn defective_coloring_respects_bounds() {
    for_cases(0xDEC0_0002, |case_seed, rng| {
        let g = arb_graph(rng);
        if g.num_edges() == 0 {
            return;
        }
        let beta = rng.gen_range(1..5u32);
        // Any proper edge coloring works as the X-coloring; greedy is fine.
        let x = deco::algos::greedy::greedy_edge_coloring(&g, deco::algos::greedy::EdgeOrder::ById);
        let xc: Vec<u32> = g.edges().map(|e| x.get(e).unwrap()).collect();
        let xp = xc.iter().max().unwrap() + 1;
        let d = defective_edge_coloring(&g, beta, &xc, xp.max(2), &Runtime::serial());
        assert!(
            d.colors.iter().all(|&c| c < defective_palette(beta)),
            "palette overflow for case seed {case_seed}"
        );
        let defects = coloring::edge_defects(&g, &d.colors);
        for e in g.edges() {
            assert!(
                defects[e.index()] <= defect_bound(&g, e, beta),
                "defect bound violated at {e} for case seed {case_seed}"
            );
        }
    });
}

#[test]
fn lemma44_holds_for_arbitrary_lists() {
    for_cases(0xDEC0_0003, |case_seed, rng| {
        let len = rng.gen_range(1..200usize);
        let raw: Vec<u32> = (0..len).map(|_| rng.gen_range(0..600u32)).collect();
        let p = rng.gen_range(2..40u32);
        let list = ColorList::new(raw);
        let c = 600u32;
        let p = p.min(c);
        let part = SubspacePartition::new(c, p);
        let (k, idx) = lemma44_witness(&list, &part);
        let hq = harmonic(u64::from(part.num_subspaces()));
        assert_eq!(idx.len(), k, "witness arity for case seed {case_seed}");
        for &i in &idx {
            let (lo, hi) = part.range(i);
            assert!(
                list.count_in_range(lo, hi) as f64 >= list.len() as f64 / (k as f64 * hq) - 1e-9,
                "witness density for case seed {case_seed}"
            );
        }
        // level_of must agree with a direct witness: 2^level indices exist.
        let info = level_of(&list, &part);
        assert!(
            info.indices.len() >= 1usize << info.level,
            "level witness for case seed {case_seed}"
        );
    });
}

#[test]
fn partitions_tile_the_palette() {
    for_cases(0xDEC0_0004, |case_seed, rng| {
        let c = rng.gen_range(2..2000u32);
        let p = rng.gen_range(2..64u32).min(c);
        let part = SubspacePartition::new(c, p);
        assert!(
            part.num_subspaces() <= 2 * p,
            "subspace count for case seed {case_seed}"
        );
        let mut covered = 0u32;
        for i in 0..part.num_subspaces() {
            let (lo, hi) = part.range(i);
            assert_eq!(lo, covered, "gap at subspace {i} for case seed {case_seed}");
            assert!(hi > lo, "empty subspace {i} for case seed {case_seed}");
            covered = hi;
        }
        assert_eq!(covered, c, "partition must tile for case seed {case_seed}");
        // subspace_of is the inverse of range.
        for color in [0, c / 3, c / 2, c - 1] {
            let i = part.subspace_of(color);
            let (lo, hi) = part.range(i);
            assert!(
                lo <= color && color < hi,
                "inverse lookup for case seed {case_seed}"
            );
        }
    });
}

#[test]
fn greedy_list_coloring_never_fails_on_deg_plus_one() {
    for_cases(0xDEC0_0005, |case_seed, rng| {
        let g = arb_graph(rng);
        if g.num_edges() == 0 {
            return;
        }
        let seed = rng.gen_range(0..u64::MAX);
        let inst = instance::random_deg_plus_one(&g, g.max_edge_degree() as u32 + 2, seed);
        let lists: Vec<Vec<u32>> = inst.lists().iter().map(|l| l.to_vec()).collect();
        let res = deco::algos::greedy::greedy_list_edge_coloring(
            &g,
            &lists,
            deco::algos::greedy::EdgeOrder::Random(seed),
        );
        assert!(res.is_ok(), "greedy failed for case seed {case_seed}");
    });
}

#[test]
fn edge_coloring_validators_agree_with_defects() {
    for_cases(0xDEC0_0006, |case_seed, rng| {
        let g = arb_graph(rng);
        if g.num_edges() == 0 {
            return;
        }
        let seed = rng.gen_range(0..u64::MAX);
        // A random (possibly improper) coloring: checker errors iff some
        // defect is positive.
        let colors: Vec<u32> = (0..g.num_edges())
            .map(|i| ((seed >> (i % 48)) % 4) as u32)
            .collect();
        let defects = coloring::edge_defects(&g, &colors);
        let proper =
            coloring::check_edge_coloring(&g, &coloring::EdgeColoring::from_complete(colors));
        assert_eq!(
            proper.is_ok(),
            defects.iter().all(|&d| d == 0),
            "validators disagree for case seed {case_seed}"
        );
    });
}

/// A color near a 64-bit word edge of the list storage (or the palette's
/// last color), sometimes nudged by one, else uniform in `0..bound`.
fn arb_color(rng: &mut StdRng, palette: u32, bound: u32) -> u32 {
    const WORD_EDGES: [u32; 6] = [0, 63, 64, 65, 127, 128];
    let c = if rng.gen_bool(0.6) {
        let pick = rng.gen_range(0..=WORD_EDGES.len());
        let base = WORD_EDGES.get(pick).copied().unwrap_or(palette - 1);
        match rng.gen_range(0..3u32) {
            0 => base.saturating_sub(1),
            1 => base,
            _ => base + 1,
        }
    } else {
        rng.gen_range(0..bound)
    };
    c.min(bound - 1)
}

#[test]
fn color_list_matches_a_sorted_vec_model() {
    // Equality compares colors, not storage: two words with the second
    // emptied equal one word.
    let mut wide = ColorList::range(0, 70);
    wide.remove_all(&(64..70).collect::<Vec<u32>>());
    assert_eq!(wide, ColorList::range(0, 64));

    for_cases(0xDEC0_0007, |case_seed, rng| {
        let palette = rng.gen_range(1..300u32);
        let probe_bound = palette + 70;
        let mut list = ColorList::default();
        let mut model: Vec<u32> = Vec::new();
        for step in 0..40 {
            let ctx = format!("case seed {case_seed}, step {step}");
            match rng.gen_range(0..6u32) {
                0 => {
                    let colors: Vec<u32> = (0..rng.gen_range(0..40usize))
                        .map(|_| arb_color(rng, palette, palette))
                        .collect();
                    list = ColorList::new(colors.clone());
                    model = colors;
                }
                1 => {
                    let lo = arb_color(rng, palette, palette + 1);
                    let hi = arb_color(rng, palette, palette + 1);
                    list = ColorList::range(lo, hi);
                    model = (lo..hi).collect();
                }
                2 => {
                    let c = arb_color(rng, palette, probe_bound);
                    let had = model.contains(&c);
                    model.retain(|&x| x != c);
                    assert_eq!(list.remove(c), had, "remove({c}) at {ctx}");
                }
                3 => {
                    let forbidden: Vec<u32> = (0..rng.gen_range(0..12usize))
                        .map(|_| arb_color(rng, palette, probe_bound))
                        .collect();
                    list.remove_all(&forbidden);
                    model.retain(|c| !forbidden.contains(c));
                }
                4 => {
                    let lo = arb_color(rng, palette, probe_bound);
                    let hi = arb_color(rng, palette, probe_bound);
                    list = list.restrict_to_range(lo, hi);
                    model.retain(|&c| lo <= c && c < hi);
                }
                _ => {
                    let colors: Vec<u32> = (0..rng.gen_range(0..20usize))
                        .map(|_| arb_color(rng, palette, palette))
                        .collect();
                    list = colors.iter().copied().collect();
                    model = colors;
                }
            }
            model.sort_unstable();
            model.dedup();

            assert_eq!(list.len(), model.len(), "len at {ctx}");
            assert_eq!(list.is_empty(), model.is_empty(), "is_empty at {ctx}");
            assert_eq!(list.to_vec(), model, "iter at {ctx}");
            let n = model.len();
            assert_eq!(list.iter().size_hint(), (n, Some(n)), "size_hint at {ctx}");
            assert_eq!(list.first(), model.first().copied(), "first at {ctx}");
            for c in 0..probe_bound {
                assert_eq!(
                    list.contains(c),
                    model.contains(&c),
                    "contains({c}) at {ctx}"
                );
            }
            let from = arb_color(rng, palette, probe_bound);
            assert_eq!(
                list.first_from(from),
                model.iter().copied().find(|&c| c >= from),
                "first_from({from}) at {ctx}"
            );
            let lo = arb_color(rng, palette, probe_bound);
            let hi = arb_color(rng, palette, probe_bound);
            let inside: Vec<u32> = model
                .iter()
                .copied()
                .filter(|&c| lo <= c && c < hi)
                .collect();
            assert_eq!(
                list.count_in_range(lo, hi),
                inside.len(),
                "count_in_range({lo}, {hi}) at {ctx}"
            );
            assert_eq!(
                list.restrict_to_range(lo, hi).to_vec(),
                inside,
                "restrict_to_range({lo}, {hi}) at {ctx}"
            );
            let shown: Vec<String> = model.iter().map(u32::to_string).collect();
            assert_eq!(
                list.to_string(),
                format!("{{{}}}", shown.join(",")),
                "Display at {ctx}"
            );
            // A freshly built list has the fewest words; equality ignores
            // that, but not a color added past this list's last word.
            assert_eq!(list, ColorList::new(model.clone()), "eq at {ctx}");
            let extra = arb_color(rng, palette, probe_bound);
            let mut other = model.clone();
            other.push(extra);
            assert_eq!(
                list == ColorList::new(other),
                model.contains(&extra),
                "eq after adding {extra} at {ctx}"
            );
        }
    });
}
