//! Shape assertions against the paper's evaluation: who wins, by roughly
//! what factor, and which qualitative patterns hold. These tests pin the
//! reproduction to the published trends without requiring exact numbers.

use autocomm_repro::baselines::{compile_ferrari, compile_gp_tp};
use autocomm_repro::circuit::{unroll_circuit, Partition};
use autocomm_repro::core::{burst_distribution, Ablation, AutoComm};
use autocomm_repro::hardware::HardwareSpec;
use autocomm_repro::partition::{oee_partition, InteractionGraph};
use autocomm_repro::workloads as wl;

fn oee(circuit: &autocomm_repro::circuit::Circuit, nodes: usize) -> Partition {
    let unrolled = unroll_circuit(circuit).unwrap();
    let graph = InteractionGraph::from_circuit(&unrolled);
    oee_partition(&graph, nodes).unwrap()
}

fn improv(circuit: &autocomm_repro::circuit::Circuit, nodes: usize) -> f64 {
    let p = oee(circuit, nodes);
    let hw = HardwareSpec::for_partition(&p);
    let r = AutoComm::new().compile(circuit, &p).unwrap();
    let b = compile_ferrari(circuit, &p, &hw).unwrap();
    b.total_comms as f64 / r.metrics.total_comms.max(1) as f64
}

#[test]
fn bv_matches_paper_exactly() {
    // Paper Table 3: BV-100-10 → 9 comms, all Cat, improv 6.22.
    let c = wl::bv(100);
    let p = oee(&c, 10);
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert_eq!(r.metrics.total_comms, 9);
    assert_eq!(r.metrics.tp_comms, 0);
    let f = improv(&c, 10);
    assert!(f > 5.0, "BV improv {f}");
}

#[test]
fn improvement_ordering_follows_the_paper() {
    // Paper Table 3 ordering at the 100-qubit scale:
    // QFT > BV > MCTR/RCA/QAOA > UCCSD (UCCSD is always the smallest win).
    let qft = improv(&wl::qft(60), 6);
    let bv = improv(&wl::bv(60), 6);
    let qaoa = improv(&wl::qaoa_maxcut(60, 600, 3), 6);
    let uccsd = improv(&wl::uccsd(12), 6);
    assert!(qft > bv, "QFT {qft} vs BV {bv}");
    assert!(bv > qaoa, "BV {bv} vs QAOA {qaoa}");
    assert!(qaoa > uccsd, "QAOA {qaoa} vs UCCSD {uccsd}");
    assert!(uccsd >= 1.0, "UCCSD {uccsd} must still win");
}

#[test]
fn rca_is_tp_dominated_bv_is_cat_only() {
    // Paper Table 3: RCA's comms are mostly TP, BV's are all Cat.
    let c = wl::rca(60);
    let p = oee(&c, 6);
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert!(
        r.metrics.tp_comms * 2 > r.metrics.total_comms,
        "RCA should be TP-dominated: {} of {}",
        r.metrics.tp_comms,
        r.metrics.total_comms
    );

    let c = wl::bv(60);
    let p = oee(&c, 6);
    let r = AutoComm::new().compile(&c, &p).unwrap();
    assert_eq!(r.metrics.tp_comms, 0, "BV must be all Cat");
}

#[test]
fn burst_distribution_shows_bursts_everywhere() {
    // Paper Fig. 15: on average ≥ 2 remote CX per communication for ~77% of
    // communications. Check the ≥2 mass is substantial on every workload.
    for (circuit, nodes) in [
        (wl::qft(40), 4),
        (wl::bv(40), 4),
        (wl::qaoa_maxcut(40, 400, 7), 4),
        (wl::mctr(40), 4),
        (wl::rca(40), 4),
        (wl::uccsd(12), 6),
    ] {
        let p = oee(&circuit, nodes);
        let r = AutoComm::new().compile(&circuit, &p).unwrap();
        let dist = burst_distribution(&r.metrics, 4);
        // UCCSD's interleaved basis changes fragment blocks the most
        // (lowest improvement in the paper as well): accept a lower floor.
        let floor = if circuit.num_qubits() == 12 { 0.2 } else { 0.3 };
        assert!(
            dist[1] > floor,
            "expected bursts: Pr[>=2] = {} on a {}-node workload",
            dist[1],
            nodes
        );
    }
}

#[test]
fn autocomm_beats_gp_tp_everywhere() {
    // Paper Fig. 16: AutoComm wins against GP-TP on every family, most on
    // BV/QFT, least on RCA/QAOA.
    let mut factors = Vec::new();
    for (name, circuit, nodes) in [
        ("rca", wl::rca(40), 4),
        ("qaoa", wl::qaoa_maxcut(40, 400, 7), 4),
        ("qft", wl::qft(40), 4),
        ("bv", wl::bv(40), 4),
    ] {
        let p = oee(&circuit, nodes);
        let hw = HardwareSpec::for_partition(&p);
        let r = AutoComm::new().compile(&circuit, &p).unwrap();
        let g = compile_gp_tp(&circuit, &p, &hw).unwrap();
        let factor = g.total_comms as f64 / r.metrics.total_comms.max(1) as f64;
        assert!(factor >= 1.0, "{name}: GP-TP beat AutoComm ({factor})");
        factors.push((name, factor));
    }
    let qft = factors.iter().find(|(n, _)| *n == "qft").unwrap().1;
    let rca = factors.iter().find(|(n, _)| *n == "rca").unwrap().1;
    assert!(qft > rca, "QFT ({qft}) should beat RCA ({rca}) as in Fig. 16");
}

#[test]
fn ablation_ratios_in_paper_bands() {
    // Fig. 17(a): no-commute costs several times more comms on QFT and BV.
    let c = wl::qft(40);
    let p = oee(&c, 4);
    let full = AutoComm::new().compile(&c, &p).unwrap();
    let nc = AutoComm::with_ablations(&[Ablation::NoCommute]).compile(&c, &p).unwrap();
    let ratio = nc.metrics.total_comms as f64 / full.metrics.total_comms as f64;
    assert!(ratio > 3.0, "QFT no-commute ratio {ratio} (paper ≈ 4.35)");

    let c = wl::bv(40);
    let p = oee(&c, 4);
    let full = AutoComm::new().compile(&c, &p).unwrap();
    let nc = AutoComm::with_ablations(&[Ablation::NoCommute]).compile(&c, &p).unwrap();
    let ratio = nc.metrics.total_comms as f64 / full.metrics.total_comms as f64;
    assert!(ratio > 3.0, "BV no-commute ratio {ratio} (paper ≈ 6.22)");

    // Fig. 17(b): Cat-only hurts QFT-like target-form workloads only
    // mildly here (our QFT compiles Cat-friendly), but must never help.
    let c = wl::rca(40);
    let p = oee(&c, 4);
    let full = AutoComm::new().compile(&c, &p).unwrap();
    let co = AutoComm::with_ablations(&[Ablation::CatOnly]).compile(&c, &p).unwrap();
    assert!(co.metrics.total_comms >= full.metrics.total_comms);

    // Fig. 17(c): plain greedy scheduling is slower on TP-heavy workloads
    // (our QFT compiles all-Cat, so MCTR carries this assertion; see
    // docs/paper.md “Known deviations”).
    let c = wl::mctr(40);
    let p = oee(&c, 4);
    let full = AutoComm::new().compile(&c, &p).unwrap();
    let pg = AutoComm::with_ablations(&[Ablation::PlainGreedy]).compile(&c, &p).unwrap();
    let ratio = pg.schedule.makespan / full.schedule.makespan;
    assert!(ratio > 1.1, "greedy/burst-greedy latency ratio {ratio} (paper 1.2–1.6)");
    // And it must never help, on any workload.
    let c = wl::qft(40);
    let p = oee(&c, 4);
    let full = AutoComm::new().compile(&c, &p).unwrap();
    let pg = AutoComm::with_ablations(&[Ablation::PlainGreedy]).compile(&c, &p).unwrap();
    assert!(pg.schedule.makespan >= full.schedule.makespan - 1e-9);
}

#[test]
fn sensitivity_trends_match_fig17de() {
    // Fig. 17(d)/(e): the improvement factor grows with qubits-per-node and
    // shrinks when qubits spread over more nodes.
    let few_nodes = improv(&wl::qft(48), 2);
    let many_nodes = improv(&wl::qft(48), 12);
    assert!(few_nodes > many_nodes, "more qubits per node must help: {few_nodes} vs {many_nodes}");
}

#[test]
fn tot_comm_never_exceeds_rem_cx() {
    // Aggregation + assignment can never cost more than sparse comms.
    for (circuit, nodes) in [
        (wl::qft(30), 3),
        (wl::bv(30), 3),
        (wl::rca(30), 3),
        (wl::mctr(30), 3),
        (wl::qaoa_maxcut(30, 120, 3), 3),
        (wl::uccsd(8), 4),
    ] {
        let p = oee(&circuit, nodes);
        let r = AutoComm::new().compile(&circuit, &p).unwrap();
        assert!(r.metrics.total_comms <= r.metrics.total_rem_cx);
    }
}
