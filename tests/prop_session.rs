//! The `Session` contract suite.
//!
//! `Session` is the one driver of every algorithm's phase loop. This
//! suite pins its output as goldens: for every `Algorithm` variant the
//! label, the oracle-check count, the matching, and a digest of the
//! *full* `NetStats` (rounds, messages, bits, message sizes, plane
//! gauges, and every per-round trace row) must reproduce bit-for-bit,
//! under both termination modes and both executors. The goldens were
//! captured while the legacy free-function entry points were still
//! asserted bit-identical to `Session`. The suite also covers the
//! observer plane (mid-run snapshots, convergence curves, round
//! budgets), warm starts, rewire repair, and Honest termination across
//! all variants.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::Graph;
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::{Algorithm, Phase, RewirePatch, Session, TerminationMode};
use distributed_matching::simnet::{ExecCfg, NetStats, RoundTrace};

/// Every `Algorithm` variant (both termination-relevant `Weighted`
/// boxes included; `Bipartite` needs the sides of `bipartite_case`).
fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Generic { k: 3 },
        Algorithm::Bipartite { k: 2 },
        Algorithm::General {
            k: 2,
            early_stop: Some(8),
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::SeqClass,
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::ParClass,
        },
        Algorithm::DeltaMwm {
            mwm_box: MwmBox::LocalDominant,
        },
    ]
}

fn needs_weights(alg: &Algorithm) -> bool {
    matches!(alg, Algorithm::Weighted { .. } | Algorithm::DeltaMwm { .. })
}

/// (graph, sides) for one test case; weighted algorithms get weights.
/// Graphs are *connected* (Honest mode runs a convergecast over the
/// whole topology).
fn case(alg: &Algorithm, seed: u64) -> (Graph, Option<Vec<bool>>) {
    if matches!(alg, Algorithm::Bipartite { .. }) {
        let (g, sides) = (0..)
            .map(|i| bipartite_gnp(10, 11, 0.4, seed + 1000 * i))
            .find(|(g, _)| g.components() == 1)
            .expect("a connected bipartite sample exists");
        (g, Some(sides))
    } else {
        let g = (0..)
            .map(|i| gnp(22, 0.22, seed + 1000 * i))
            .find(|g| g.components() == 1)
            .expect("a connected sample exists");
        if needs_weights(alg) {
            (
                apply_weights(&g, WeightModel::Uniform(0.5, 4.0), seed + 9),
                None,
            )
        } else {
            (g, None)
        }
    }
}

fn session_run(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    termination: TerminationMode,
    cfg: ExecCfg,
) -> distributed_matching::dmatch::RunReport {
    let mut b = Session::on(g)
        .algorithm(alg)
        .seed(seed)
        .termination(termination)
        .exec(cfg);
    if let Some(sides) = sides {
        b = b.sides(sides);
    }
    b.build().run_to_completion()
}

/// FNV-1a over every `NetStats` field except the wall-clock `timings`
/// registry, every per-round row included. The exhaustive
/// destructuring makes a new field a compile error here, not a silent
/// hole in the goldens.
fn stats_digest(s: &NetStats) -> u64 {
    let NetStats {
        rounds,
        messages,
        bits,
        max_msg_bits,
        peak_inbox,
        plane_allocs,
        node_steps,
        sched_overhead,
        dropped,
        delayed,
        deferred_bits,
        crashed,
        timings: _,
        per_round,
    } = s;
    let head = [
        rounds,
        messages,
        bits,
        max_msg_bits,
        peak_inbox,
        plane_allocs,
        node_steps,
        sched_overhead,
        dropped,
        delayed,
        deferred_bits,
        crashed,
    ];
    let rows = per_round.iter().flat_map(
        |RoundTrace {
             messages,
             peak_inbox,
             plane_allocs,
             active,
             sched_overhead,
         }| [messages, peak_inbox, plane_allocs, active, sched_overhead],
    );
    fnv(head
        .into_iter()
        .copied()
        .chain([per_round.len() as u64])
        .chain(rows.copied()))
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |mut h, w| {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    })
}

/// [`stats_digest`] with the scheduler-overhead gauges zeroed (whole
/// run and per round): they model worker fan-out, so they differ
/// between the sequential and the forced-parallel executor.
fn stats_digest_unsched(s: &NetStats) -> u64 {
    let mut s = s.clone();
    s.sched_overhead = 0;
    for row in &mut s.per_round {
        row.sched_overhead = 0;
    }
    stats_digest(&s)
}

/// Pinned output of one `all_algorithms()` × seed case: the label, the
/// oracle-check count, the matched edge ids, and the [`stats_digest`]
/// under Oracle and under Honest termination.
struct Golden {
    name: &'static str,
    seed: u64,
    oracle_checks: u64,
    edges: &'static [u32],
    oracle_digest: u64,
    honest_digest: u64,
}

/// In `all_algorithms()` × seeds {3, 17} order.
const GOLDENS: [Golden; 16] = [
    Golden {
        name: "israeli-itai",
        seed: 3,
        oracle_checks: 5,
        edges: &[0, 13, 31, 8, 27, 25, 53, 18, 46, 51],
        oracle_digest: 0x1fd282ef2c49ad6f,
        honest_digest: 0xdebfe815bfd01c85,
    },
    Golden {
        name: "israeli-itai",
        seed: 17,
        oracle_checks: 4,
        edges: &[0, 40, 47, 13, 7, 9, 23, 36, 56, 30],
        oracle_digest: 0x2e1d9fec2bbeeacd,
        honest_digest: 0x9f7a4e6ad930adcb,
    },
    Golden {
        name: "generic(k=2)",
        seed: 3,
        oracle_checks: 3,
        edges: &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50],
        oracle_digest: 0xa99e9e47f8f4b14d,
        honest_digest: 0x9ceae1700f61a640,
    },
    Golden {
        name: "generic(k=2)",
        seed: 17,
        oracle_checks: 2,
        edges: &[2, 39, 4, 47, 33, 15, 14, 22, 26, 56],
        oracle_digest: 0xc9f76dfc9bf589ca,
        honest_digest: 0x37b54575d277481e,
    },
    Golden {
        name: "generic(k=3)",
        seed: 3,
        oracle_checks: 3,
        edges: &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50],
        oracle_digest: 0xa91ba9e4c2200a40,
        honest_digest: 0xdbafc14d85613912,
    },
    Golden {
        name: "generic(k=3)",
        seed: 17,
        oracle_checks: 3,
        edges: &[2, 39, 16, 47, 10, 33, 15, 14, 22, 56, 30],
        oracle_digest: 0xe6734812dc95bc32,
        honest_digest: 0xcc721d8dea422b32,
    },
    Golden {
        name: "bipartite(k=2)",
        seed: 3,
        oracle_checks: 4,
        edges: &[0, 6, 11, 13, 18, 20, 22, 25, 28, 30],
        oracle_digest: 0xb2a2c2cdfc134c8b,
        honest_digest: 0x95c2fa06ea0602f0,
    },
    Golden {
        name: "bipartite(k=2)",
        seed: 17,
        oracle_checks: 4,
        edges: &[4, 7, 10, 14, 15, 18, 24, 28, 33, 37],
        oracle_digest: 0x8e9a49a48e511c17,
        honest_digest: 0x174ac1dbc18d0317,
    },
    Golden {
        name: "general(k=2)",
        seed: 3,
        oracle_checks: 11,
        edges: &[3, 23, 22, 31, 8, 49, 21, 29, 40, 55],
        oracle_digest: 0xee15920fac8bf3af,
        honest_digest: 0x1db57ca02561e46d,
    },
    Golden {
        name: "general(k=2)",
        seed: 17,
        oracle_checks: 16,
        edges: &[0, 12, 53, 7, 9, 22, 43, 29, 50, 37],
        oracle_digest: 0x77905ff538648780,
        honest_digest: 0x97c4fc52ecf0bc83,
    },
    Golden {
        name: "weighted(ε=0.25, box=SeqClass)",
        seed: 3,
        oracle_checks: 13,
        edges: &[20, 4, 13, 44, 8, 25, 28, 32, 54, 52],
        oracle_digest: 0x05e749405549dce2,
        honest_digest: 0x359391f7c244f043,
    },
    Golden {
        name: "weighted(ε=0.25, box=SeqClass)",
        seed: 17,
        oracle_checks: 13,
        edges: &[0, 1, 25, 10, 33, 15, 22, 28, 51, 58],
        oracle_digest: 0xa55268873e15c485,
        honest_digest: 0x5201645e580f9a3e,
    },
    Golden {
        name: "weighted(ε=0.25, box=ParClass)",
        seed: 3,
        oracle_checks: 25,
        edges: &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50],
        oracle_digest: 0xded959550cef0d0d,
        honest_digest: 0x73b9eb5cd5899e2b,
    },
    Golden {
        name: "weighted(ε=0.25, box=ParClass)",
        seed: 17,
        oracle_checks: 25,
        edges: &[2, 11, 1, 10, 33, 15, 42, 22, 29, 56, 51],
        oracle_digest: 0x2edcbd77311cf0d0,
        honest_digest: 0xd9ef2672d5567465,
    },
    Golden {
        name: "delta-mwm(LocalDominant)",
        seed: 3,
        oracle_checks: 1,
        edges: &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50],
        oracle_digest: 0xf2c31fa05463b143,
        honest_digest: 0x1c165550257b29ba,
    },
    Golden {
        name: "delta-mwm(LocalDominant)",
        seed: 17,
        oracle_checks: 1,
        edges: &[39, 1, 25, 10, 18, 15, 22, 28, 51, 57],
        oracle_digest: 0x51190c0d6489b0cc,
        honest_digest: 0x8333df259c650b82,
    },
];

/// Every `Algorithm` variant, both seeds, both termination modes and
/// both executors reproduce the pinned goldens bit-for-bit (label,
/// oracle checks, matching, and the full `NetStats` incl. every
/// per-round row). The values were captured from the legacy free
/// functions and `Session` while the two were asserted bit-identical,
/// so they pin the original loops' behaviour on the one driver left.
#[test]
fn shim_and_session_are_bit_identical_for_every_algorithm() {
    let cases = all_algorithms()
        .into_iter()
        .flat_map(|alg| [3u64, 17].map(|seed| (alg, seed)));
    let mut checked = 0;
    for ((alg, seed), golden) in cases.zip(&GOLDENS) {
        assert_eq!(golden.seed, seed, "golden table out of order");
        let (g, sides) = case(&alg, seed);
        let sides_ref = sides.as_deref();
        for termination in [TerminationMode::Oracle, TerminationMode::Honest] {
            let digest = match termination {
                TerminationMode::Oracle => golden.oracle_digest,
                TerminationMode::Honest => golden.honest_digest,
            };
            for cfg in [ExecCfg::sequential(), ExecCfg::parallel(4)] {
                let r = session_run(&g, sides_ref, alg, seed, termination, cfg);
                assert_eq!(r.name, golden.name, "{alg}: label diverged");
                assert_eq!(
                    r.matching.edge_ids(&g),
                    golden.edges,
                    "{alg}/{termination}/seed {seed}: matching diverged"
                );
                assert_eq!(
                    stats_digest(&r.stats),
                    digest,
                    "{alg}/{termination}/seed {seed}: NetStats diverged (incl. per-round rows)"
                );
                assert_eq!(
                    r.oracle_checks, golden.oracle_checks,
                    "{alg}/{termination}/seed {seed}: oracle accounting diverged"
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, GOLDENS.len());
}

/// Warm starts (Generic and Israeli–Itai) reproduce the goldens pinned
/// from the legacy warm-start entry points.
#[test]
fn warm_start_matches_from_shims() {
    let g = gnp(26, 0.15, 5);
    let init = distributed_matching::dgraph::greedy::greedy_maximal(&g);
    let warm = |alg: Algorithm, cfg: ExecCfg| {
        Session::on(&g)
            .algorithm(alg)
            .warm_start(&init)
            .seed(7)
            .exec(cfg)
            .build()
            .run_to_completion()
    };
    let edges = [0, 2, 29, 9, 5, 8, 22, 18, 14, 34, 44, 53, 48];

    let sess = warm(Algorithm::Generic { k: 2 }, ExecCfg::sequential());
    assert_eq!(sess.matching.edge_ids(&g), edges);
    assert_eq!(stats_digest(&sess.stats), 0x252effe5abdf6d2b);

    let sess = warm(Algorithm::IsraeliItai, ExecCfg::default());
    assert_eq!(sess.matching.edge_ids(&g), edges);
    assert_eq!(stats_digest(&sess.stats), 0x6925a4e50647f083);
}

/// `resume_after_rewire` reproduces the legacy damage-ball repair: the
/// repaired matching and the repair epoch's statistics (the session's
/// stats delta across the rewire) equal the goldens pinned from the
/// standalone repair entry point.
#[test]
fn rewire_repair_matches_repair_shim() {
    struct Repair {
        seed: u64,
        edges: &'static [u32],
        rounds: u64,
        messages: u64,
        bits: u64,
    }
    let goldens = [
        Repair {
            seed: 1,
            edges: &[5, 35, 25, 19, 6, 3, 18, 59, 45, 31, 40, 55, 34, 52, 50],
            rounds: 15,
            messages: 884,
            bits: 711005,
        },
        Repair {
            seed: 8,
            edges: &[
                13, 54, 36, 6, 8, 2, 33, 29, 46, 17, 34, 19, 16, 42, 35, 52, 49,
            ],
            rounds: 15,
            messages: 753,
            bits: 595074,
        },
    ];
    for golden in &goldens {
        let seed = golden.seed;
        let g = gnp(36, 0.09, 60 + seed);
        let k = 2;
        let mut sess = Session::on(&g)
            .algorithm(Algorithm::Generic { k })
            .seed(seed)
            .build();
        let boot = sess.run_to_completion();
        let e = boot.matching.edge_ids(&g)[0];
        let (a, b) = g.endpoints(e);
        let (g2, _) = g.edge_subgraph(|x| x != e);
        let before = sess.stats().clone();
        sess.resume_after_rewire(RewirePatch::new(g2.clone(), vec![a, b]));
        let after = sess.run_to_completion();
        assert_eq!(after.matching.edge_ids(&g2), golden.edges, "seed {seed}");
        assert_eq!(
            after.stats.rounds - before.rounds,
            golden.rounds,
            "seed {seed}: repair rounds diverged"
        );
        assert_eq!(after.stats.messages - before.messages, golden.messages);
        assert_eq!(after.stats.bits - before.bits, golden.bits);
    }
}

/// Generic's ball gathering (Algorithm 2) under every fault class:
/// k ∈ {1, 2, 3} × {no faults, drop, delay, crash} on a gnp and a
/// Chung–Lu graph, each run on the sequential and the forced-parallel
/// executor. Both executors must reproduce the pinned matched edge ids
/// (as a [`fnv`] digest) and the full `NetStats` digest, per-round rows
/// included and scheduler overhead masked.
#[test]
fn generic_gathering_goldens_across_fault_plans() {
    use bench_harness::workloads::Family;
    use distributed_matching::simnet::FaultPlan;
    let graphs = [
        gnp(120, 8.0 / 120.0, 31),
        Family::ChungLu.instantiate(120, 32).graph,
    ];
    let plans = [
        FaultPlan::NONE,
        FaultPlan::drop(0.1),
        FaultPlan::NONE.with_delay(3),
        FaultPlan::NONE.with_crash(0.02, 0),
    ];
    let mut goldens = GATHER_GOLDENS.iter();
    for (gi, g) in graphs.iter().enumerate() {
        for k in 1..=3 {
            for &plan in &plans {
                let &(edges, digest) = goldens.next().expect("one golden per case");
                for cfg in [ExecCfg::sequential(), ExecCfg::parallel(4).forced()] {
                    let r = Session::on(g)
                        .algorithm(Algorithm::Generic { k })
                        .seed(5)
                        .exec(cfg)
                        .adversary(plan)
                        .build()
                        .run_to_completion();
                    let case = format!("graph {gi}, k {k}, plan {plan:?}, {cfg:?}");
                    assert_eq!(
                        fnv(r.matching.edge_ids(g).into_iter().map(u64::from)),
                        edges,
                        "{case}: matching diverged"
                    );
                    assert_eq!(
                        stats_digest_unsched(&r.stats),
                        digest,
                        "{case}: NetStats diverged (incl. per-round rows)"
                    );
                }
            }
        }
    }
    assert!(goldens.next().is_none(), "every golden checked");
}

/// In graph × k × plan order of
/// [`generic_gathering_goldens_across_fault_plans`]: (edge-id digest,
/// unsched stats digest).
const GATHER_GOLDENS: [(u64, u64); 24] = [
    // gnp(120, d̄=8)
    (0x5b1d272645cddc67, 0xf1bced02a8f9e7a1),
    (0x5b1d272645cddc67, 0xfc18222f7e39cac2),
    (0x5b1d272645cddc67, 0x4cadbbb8273aa308),
    (0x5b1d272645cddc67, 0xe75b9831ae192804),
    (0xc37a8361dc62849c, 0xdac02253288b46b8),
    (0xc37a8361dc62849c, 0x1d8fe28e78980e5e),
    (0xc37a8361dc62849c, 0xde1dd5561dd1df94),
    (0xc37a8361dc62849c, 0xa12db82cd5adf430),
    (0xa257b6aa2d4c88c1, 0x7821c5b77caeccce),
    (0xa257b6aa2d4c88c1, 0x5dcf18342d62dd15),
    (0xa257b6aa2d4c88c1, 0xff8a34b26582e8ec),
    (0xa257b6aa2d4c88c1, 0x42b1bb2098f91ca2),
    // Chung–Lu(120)
    (0x90fd717a720ef7f5, 0x9a8dbd24d18fe46b),
    (0x90fd717a720ef7f5, 0xe03ef4ef07758a20),
    (0x90fd717a720ef7f5, 0x96cf94eddf0c607a),
    (0x90fd717a720ef7f5, 0xe75c6a6fda50d790),
    (0xf7ef4707d0a8c3b1, 0x73fa37a1c1b31262),
    (0xf7ef4707d0a8c3b1, 0xe290f5a2fc64e56c),
    (0xf7ef4707d0a8c3b1, 0x5944a7ff95d7f022),
    (0xf7ef4707d0a8c3b1, 0xbf755e085c2afe59),
    (0x8b1a5a5d623f985f, 0xdf8da17a106b1bf4),
    (0x8b1a5a5d623f985f, 0xe618b03f5fa02652),
    (0x8b1a5a5d623f985f, 0x5877bc8fcd9aac65),
    (0x8b1a5a5d623f985f, 0x5a9bc0c08be37d0a),
];

/// `weighted::full_approx` runs the same gathering once per improvement
/// iteration; its charged statistics and final weight are pinned.
#[test]
fn full_approx_gathering_golden() {
    use distributed_matching::dmatch::weighted::full_approx;
    let goldens = [
        (41, 1, 0x8e97a94bc0837364, 44.576946022547546),
        (43, 2, 0x251cb549dadb3c03, 39.84923590660303),
    ];
    for (graph_seed, seed, digest, weight) in goldens {
        let g = apply_weights(
            &gnp(30, 0.15, graph_seed),
            WeightModel::Uniform(0.5, 4.0),
            graph_seed + 1,
        );
        let r = full_approx::run(&g, 2, 0.02, seed);
        assert_eq!(
            stats_digest(&r.stats),
            digest,
            "seed {seed}: NetStats diverged"
        );
        assert_eq!(
            r.matching.weight(&g).to_bits(),
            f64::to_bits(weight),
            "seed {seed}: weight diverged"
        );
    }
}

/// Acceptance test: observer-driven mid-run snapshots show the
/// matching ratio monotonically improving for `Generic { k }` without
/// consuming the run — and the final result is unchanged by observing.
#[test]
fn midrun_snapshots_show_monotone_ratio_without_consuming() {
    let k = 4;
    let g = gnp(40, 0.12, 21);
    let opt = distributed_matching::dgraph::blossom::max_matching(&g)
        .size()
        .max(1);
    let mut sess = Session::on(&g)
        .algorithm(Algorithm::Generic { k })
        .seed(2)
        .build();
    let mut ratios = Vec::new();
    loop {
        match sess.step() {
            Phase::Ran(info) => {
                let snap = sess.snapshot();
                assert_eq!(snap.matching.size(), info.matching_size);
                assert!(snap.matching.validate(&g).is_ok());
                ratios.push(snap.matching.size() as f64 / opt as f64);
            }
            Phase::Done => break,
            Phase::Aborted => unreachable!("no aborting observer attached"),
        }
    }
    assert_eq!(ratios.len(), k, "one snapshot per phase");
    assert!(
        ratios.windows(2).all(|w| w[1] >= w[0]),
        "ratio must improve monotonically: {ratios:?}"
    );
    assert!(*ratios.last().unwrap() >= 1.0 - 1.0 / (k as f64 + 1.0) - 1e-9);
    // Snapshots consumed nothing: the run equals an unobserved one.
    let oneshot = Session::on(&g)
        .algorithm(Algorithm::Generic { k })
        .seed(2)
        .build()
        .run_to_completion();
    assert_eq!(&oneshot.matching, sess.matching());
    assert_eq!(&oneshot.stats, sess.stats());
}

/// Satellite: `TerminationMode::Honest` across *all* algorithm
/// variants — every run performs oracle checks, and honest charging
/// can only add rounds (strictly, on these connected-enough graphs).
#[test]
fn honest_mode_charges_every_algorithm() {
    for alg in all_algorithms() {
        let (g, sides) = case(&alg, 9);
        let sides_ref = sides.as_deref();
        let oracle = session_run(
            &g,
            sides_ref,
            alg,
            4,
            TerminationMode::Oracle,
            ExecCfg::default(),
        );
        let honest = session_run(
            &g,
            sides_ref,
            alg,
            4,
            TerminationMode::Honest,
            ExecCfg::default(),
        );
        assert!(honest.oracle_checks > 0, "{alg}: no oracle checks counted");
        assert_eq!(honest.oracle_checks, oracle.oracle_checks);
        assert!(
            honest.stats.rounds >= oracle.stats.rounds,
            "{alg}: honest {} < oracle {}",
            honest.stats.rounds,
            oracle.stats.rounds
        );
        assert!(
            honest.stats.rounds > oracle.stats.rounds || g.n() == 0,
            "{alg}: honest mode must charge convergecasts"
        );
        assert_eq!(
            honest.matching, oracle.matching,
            "{alg}: termination charging must not change the result"
        );
    }
}

/// Satellite: the ParClass box routes the caller's `ExecCfg` into every
/// per-class network — results are bit-identical across worker-thread
/// counts and scheduler modes, and match the pinned golden.
#[test]
fn parclass_box_threads_exec_cfg() {
    let g = apply_weights(&gnp(24, 0.2, 13), WeightModel::Exponential(1.5), 14);
    let alg = Algorithm::DeltaMwm {
        mwm_box: MwmBox::ParClass,
    };
    let base = session_run(
        &g,
        None,
        alg,
        6,
        TerminationMode::Oracle,
        ExecCfg::sequential(),
    );
    for cfg in [ExecCfg::parallel(8), ExecCfg::sequential().dense()] {
        let other = session_run(&g, None, alg, 6, TerminationMode::Oracle, cfg);
        assert_eq!(base.matching, other.matching);
        assert_eq!(base.stats.messages, other.stats.messages);
        assert_eq!(base.stats.rounds, other.stats.rounds);
    }
    // The pinned output of the ParClass box at this seed (captured from
    // the legacy free function, which shared this path).
    assert_eq!(base.name, "delta-mwm(ParClass)");
    assert_eq!(base.oracle_checks, 1);
    assert_eq!(base.matching.edge_ids(&g), [27, 0, 21, 58, 34, 54, 45]);
    assert_eq!(stats_digest(&base.stats), 0xcb1b6d6293daa0a2);
}

/// The cached blossom optimum: repeated ratio queries agree, and the
/// underlying solver runs only once (observable as stable identity of
/// the result; the panic-on-different-graph guard has its own test).
#[test]
fn run_report_caches_the_optimum() {
    let g = gnp(30, 0.15, 44);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let first = r.mcm_ratio(&g);
    for _ in 0..100 {
        assert_eq!(r.mcm_ratio(&g), first);
    }
    assert_eq!(
        r.mcm_opt(&g),
        distributed_matching::dgraph::blossom::max_matching(&g).size()
    );
}

#[test]
#[should_panic(expected = "different graph")]
fn run_report_cache_rejects_equal_sized_rewired_graph() {
    // Degree-preserving rewiring keeps (n, m); the cache tag must
    // still notice the edge list changed.
    let g = Graph::new(4, vec![(0, 1), (2, 3)]);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let _ = r.mcm_opt(&g);
    let rewired = Graph::new(4, vec![(0, 2), (1, 3)]);
    let _ = r.mcm_opt(&rewired);
}

#[test]
#[should_panic(expected = "different graph")]
fn run_report_cache_rejects_a_different_graph() {
    let g = gnp(30, 0.15, 44);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let _ = r.mcm_ratio(&g);
    let other = gnp(31, 0.15, 45);
    let _ = r.mcm_ratio(&other);
}
