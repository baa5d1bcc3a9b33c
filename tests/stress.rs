//! Large-scale stress tests — run explicitly with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These verify the guarantees at sizes beyond the default CI budget
//! and exercise the parallel stepping path under load.

use distributed_matching::dgraph::generators::random::{bipartite_regular, gnp};
use distributed_matching::dmatch;
use distributed_matching::dmatch::{Algorithm, Session};

#[test]
#[ignore = "large: ~seconds in release, minutes in debug"]
fn israeli_itai_at_sixty_five_thousand_nodes() {
    let n = 1 << 16;
    let g = gnp(n, 8.0 / n as f64, 1);
    let r = Session::on(&g)
        .algorithm(Algorithm::IsraeliItai)
        .seed(2)
        .build()
        .run_to_completion();
    assert!(r.matching.is_maximal(&g));
    // O(log n) iterations: 16·3·constant rounds is plenty.
    assert!(r.stats.rounds <= 3 * 250, "{} rounds", r.stats.rounds);
}

#[test]
#[ignore = "large"]
fn bipartite_theorem_38_at_scale() {
    let (g, sides) = bipartite_regular(1 << 13, 3, 3);
    let out = Session::on(&g)
        .algorithm(Algorithm::Bipartite { k: 4 })
        .sides(&sides)
        .seed(5)
        .build()
        .run_to_completion();
    assert!(out.matching.validate(&g).is_ok());
    let opt = distributed_matching::dgraph::hopcroft_karp::max_matching(&g, &sides).size();
    assert!(out.matching.size() as f64 >= 0.75 * opt as f64);
    assert!(out.stats.max_msg_bits <= 128);
}

#[test]
#[ignore = "large"]
fn parallel_stepping_agrees_at_scale() {
    use simnet::{Ctx, Inbox, Network, Protocol};
    struct Gossip(u64);
    impl Protocol for Gossip {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.0 = self.0.rotate_left(13) ^ *e.msg;
            }
            if ctx.round() < 16 {
                let r = ctx.rng().next();
                ctx.send_all(self.0 ^ r);
            } else {
                ctx.halt();
            }
        }
    }
    let n = 1 << 14;
    let g = gnp(n, 10.0 / n as f64, 7);
    let topo = dmatch::topology_of(&g);
    let mk = || (0..n as u64).map(Gossip).collect::<Vec<_>>();
    let mut seq = Network::new(topo.clone(), mk(), 9);
    seq.run_until_halt(64);
    let mut par = Network::new(topo, mk(), 9).with_threads(8);
    par.run_until_halt(64);
    for (a, b) in seq.nodes().iter().zip(par.nodes()) {
        assert_eq!(a.0, b.0);
    }
}

#[test]
#[ignore = "large"]
fn churn_engine_at_scale() {
    use distributed_matching::dchurn::{ChurnModel, DynEngine, RepairAlgo};
    let n = 1 << 15;
    let g = gnp(n, 8.0 / n as f64, 3);
    let mut eng = DynEngine::with_cfg(
        g,
        ChurnModel::EdgeChurn { rate: 0.02 },
        RepairAlgo::IncrementalMaximal,
        6,
        simnet::ExecCfg::parallel(8),
    );
    eng.bootstrap();
    for _ in 0..20 {
        let rep = eng.step_epoch().clone();
        assert!(rep.maximal);
        assert!(eng.matching().validate(eng.graph()).is_ok());
        // Repair stays local even at 32k nodes: the woken set tracks
        // the damage, not the graph.
        assert!(
            rep.woken < n / 4,
            "{} of {n} nodes woke for {} damaged nodes",
            rep.woken,
            rep.damage
        );
    }
}

#[test]
#[ignore = "large"]
fn generic_k2_at_four_thousand_nodes() {
    use distributed_matching::dgraph::augmenting::has_augmenting_path_within;
    // Phase ℓ=3 gathers B(v, 6) — the whole giant component on this
    // expander — at every node.
    let n = 1 << 12;
    let g = gnp(n, 8.0 / n as f64, 3);
    let r = Session::on(&g)
        .algorithm(Algorithm::Generic { k: 2 })
        .seed(4)
        .build()
        .run_to_completion();
    assert!(r.matching.validate(&g).is_ok());
    let opt = distributed_matching::dgraph::blossom::max_matching(&g).size();
    assert!(
        3 * r.matching.size() >= 2 * opt,
        "{} < 2/3 of {opt}",
        r.matching.size()
    );
    assert!(!has_augmenting_path_within(&g, &r.matching, 3));
}

#[test]
#[ignore = "large"]
fn weighted_reduction_at_four_thousand_nodes() {
    use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
    let n = 4096;
    let g = apply_weights(
        &gnp(n, 6.0 / n as f64, 11),
        WeightModel::Exponential(1.0),
        12,
    );
    let r = Session::on(&g)
        .algorithm(Algorithm::Weighted {
            epsilon: 0.2,
            mwm_box: dmatch::weighted::MwmBox::SeqClass,
        })
        .seed(13)
        .build()
        .run_to_completion();
    assert!(r.matching.validate(&g).is_ok());
    // Certified bound: the result must clear (½-ε) of ½·Σ max-incident.
    let ub = dmatch::runner::mwm_upper_bound(&g);
    assert!(
        r.matching.weight(&g) >= 0.3 * 0.5 * ub,
        "too far below the certified bound"
    );
}

#[test]
#[ignore = "large"]
fn topology_zoo_generates_and_matches_at_scale() {
    use bench_harness::workloads::Family;
    use std::time::Instant;
    // Every zoo family at 2^14 and 2^15 nodes: generation must behave
    // like O(n+m) (the 2x-nodes run may not blow past ~4x the time of
    // the half-size run — a generous envelope that still catches a
    // quadratic pair scan), and a full Israeli–Itai run over the
    // sparse scheduler must stay within its O(log n) round budget.
    let n = 1 << 15;
    for family in Family::ZOO {
        let t0 = Instant::now();
        let half = family.instantiate(n / 2, 3);
        let t_half = t0.elapsed();
        let t0 = Instant::now();
        let w = family.instantiate(n, 3);
        let t_full = t0.elapsed();
        assert_eq!(w.graph.n(), n, "{family}");
        assert!(
            w.graph.m() >= w.graph.n(),
            "{family}: too sparse to be interesting at scale"
        );
        // Generous constant: wall-clock is noisy in CI, but a
        // quadratic generator is ~4x over this envelope already.
        assert!(
            t_full.as_secs_f64() <= 4.0 * t_half.as_secs_f64().max(0.05),
            "{family}: {t_half:?} -> {t_full:?} for 2x nodes is super-linear"
        );
        assert!(half.graph.m() > 0);
        let r = w
            .session(Algorithm::IsraeliItai, 5)
            .build()
            .run_to_completion();
        assert!(r.matching.is_maximal(&w.graph), "{family}");
        assert!(
            r.stats.rounds <= 3 * 250,
            "{family}: {} rounds breaks the O(log n) budget",
            r.stats.rounds
        );
    }
}
