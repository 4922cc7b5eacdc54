//! End-to-end smoke tests of the `autocomm` binary: compile a real QASM
//! file and check both output modes and the JSON metrics shape.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qasm_fixture(name: &str, circuit: &dqc_circuit::Circuit) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("autocomm-cli-{name}-{}.qasm", std::process::id()));
    std::fs::write(&path, dqc_circuit::to_qasm(circuit)).expect("write fixture");
    path
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autocomm")).args(args).output().expect("binary runs")
}

/// Pulls `"key":<number>` out of a flat JSON rendering.
fn json_number(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("{key} missing in {json}"));
    let rest = &json[at + needle.len()..];
    let end = rest.find([',', '}', ']']).expect("value terminated");
    rest[..end].parse().unwrap_or_else(|_| panic!("{key} not numeric in {json}"))
}

#[test]
fn compiles_qft_and_reports_json_metrics() {
    let path = qasm_fixture("qft", &dqc_workloads::qft(12));
    let out = run(&["compile", path.to_str().unwrap(), "--nodes", "4", "--json"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();

    // Table-3 shape: every headline metric present and consistent.
    let total = json_number(&json, "total_comms");
    let tp = json_number(&json, "tp_comms");
    let cat = json_number(&json, "cat_comms");
    let rem = json_number(&json, "total_rem_cx");
    assert!(total > 0.0, "QFT over 4 nodes must communicate: {json}");
    assert_eq!(tp + cat, total);
    assert!(rem >= total, "aggregation never issues more comms than remote CXs");
    assert!(json_number(&json, "improvement_factor") >= 1.0);
    assert!(json_number(&json, "makespan") > 0.0);
    assert!(json_number(&json, "epr_pairs") > 0.0);
    // The per-stage reports are visible end to end.
    for pass in ["orient", "unroll", "aggregate", "assign", "metrics", "schedule"] {
        assert!(json.contains(&format!("\"pass\":\"{pass}\"")), "{pass} missing in {json}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn ablation_flags_change_the_pipeline() {
    let path = qasm_fixture("ablate", &dqc_workloads::qft(10));
    let file = path.to_str().unwrap();
    let full = run(&["compile", file, "--nodes", "2", "--json"]);
    let ablated =
        run(&["compile", file, "--nodes", "2", "--json", "--ablation", "no-commute,cat-only"]);
    assert!(full.status.success() && ablated.status.success());
    let full = String::from_utf8(full.stdout).unwrap();
    let ablated = String::from_utf8(ablated.stdout).unwrap();
    assert!(
        json_number(&ablated, "total_comms") >= json_number(&full, "total_comms"),
        "ablations must not beat the full compiler:\n{full}\n{ablated}"
    );
    assert!(ablated.contains("\"ablations\":[\"no-commute\",\"cat-only\"]"));
    std::fs::remove_file(path).ok();
}

#[test]
fn human_report_prints_table3_metrics() {
    let path = qasm_fixture("human", &dqc_workloads::bv(9));
    let out = run(&["compile", path.to_str().unwrap(), "--nodes", "3"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["Tot Comm", "TP-Comm", "improv. factor", "passes", "aggregate"] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_over_directory_matches_across_job_counts() {
    // Two programs in a temp dir; --jobs 1 and --jobs 2 must agree on every
    // metric (only the timing fields may differ).
    let dir = std::env::temp_dir().join(format!("autocomm-batch-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("qft10.qasm"), dqc_circuit::to_qasm(&dqc_workloads::qft(10))).unwrap();
    std::fs::write(dir.join("bv12.qasm"), dqc_circuit::to_qasm(&dqc_workloads::bv(12))).unwrap();

    let run_jobs = |jobs: &str| {
        let out = run(&["batch", dir.to_str().unwrap(), "--nodes", "2", "--jobs", jobs, "--json"]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let seq = run_jobs("1");
    let par = run_jobs("2");
    for key in ["total_comms", "tp_comms", "epr_pairs", "remote_cx", "makespan"] {
        // Compare the totals object values.
        let totals = |json: &str| {
            let at = json.find("\"totals\":").unwrap();
            json_number(&json[at..], key)
        };
        assert_eq!(totals(&seq), totals(&par), "{key} differs between job counts");
    }
    assert!(seq.contains("\"programs\":2"));
    assert!(seq.contains("\"failures\":0"));
    assert!(seq.contains("\"label\":\"bv12\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_suite_runs_end_to_end() {
    let out = run(&["batch", "--suite", "--nodes", "4", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["QFT-16-4", "UCCSD-8-4", "totals:", "parallel speedup"] {
        assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
    }
}

#[test]
fn explicit_all_to_all_is_bit_identical_to_the_default() {
    let path = qasm_fixture("topo-id", &dqc_workloads::qft(12));
    let file = path.to_str().unwrap();
    let implicit = run(&["compile", file, "--nodes", "4", "--json"]);
    let explicit = run(&["compile", file, "--nodes", "4", "--topology", "all-to-all", "--json"]);
    assert!(implicit.status.success() && explicit.status.success());
    let implicit = String::from_utf8(implicit.stdout).unwrap();
    let explicit = String::from_utf8(explicit.stdout).unwrap();
    for key in ["total_comms", "tp_comms", "epr_pairs", "makespan", "fusion_savings"] {
        assert_eq!(
            json_number(&implicit, key),
            json_number(&explicit, key),
            "{key} differs:\n{implicit}\n{explicit}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn sparse_topology_reports_swaps_and_link_traffic() {
    let path = qasm_fixture("topo-linear", &dqc_workloads::qft(12));
    let file = path.to_str().unwrap();
    let dense = run(&["compile", file, "--nodes", "4", "--json"]);
    let sparse = run(&["compile", file, "--nodes", "4", "--topology", "linear", "--json"]);
    assert!(dense.status.success() && sparse.status.success());
    let dense = String::from_utf8(dense.stdout).unwrap();
    let sparse = String::from_utf8(sparse.stdout).unwrap();
    assert!(sparse.contains("\"name\":\"linear\""));
    assert!(json_number(&sparse, "diameter") == 3.0);
    assert!(json_number(&sparse, "swaps") > 0.0, "QFT over a 4-chain must swap: {sparse}");
    assert!(sparse.contains("\"link_traffic\":[{\"a\":0,"), "per-link attribution: {sparse}");
    assert!(
        json_number(&sparse, "epr_pairs") > json_number(&dense, "epr_pairs"),
        "multi-hop routing costs link-level pairs"
    );
    assert!(json_number(&sparse, "makespan") > json_number(&dense, "makespan"));
    std::fs::remove_file(path).ok();
}

#[test]
fn topology_file_round_trips_through_the_cli() {
    let qasm = qasm_fixture("topo-file", &dqc_workloads::bv(12));
    let topo = std::env::temp_dir().join(format!("autocomm-topo-{}.txt", std::process::id()));
    std::fs::write(&topo, "nodes 3\nlink 0 1\nlink 1 2 latency=2.0\n").unwrap();
    let out = run(&[
        "compile",
        qasm.to_str().unwrap(),
        "--nodes",
        "3",
        "--topology",
        topo.to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"name\":\"file\""));
    std::fs::remove_file(qasm).ok();
    std::fs::remove_file(topo).ok();
}

#[test]
fn batch_suite_with_linear_topology_attributes_links() {
    let out = run(&["batch", "--suite", "--nodes", "4", "--topology", "linear", "--jobs", "2"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("link EPR traffic (linear):"), "missing attribution in:\n{text}");
    assert!(text.contains("swaps"), "missing swap totals in:\n{text}");
}

#[test]
fn topo_placement_reduces_epr_cost_on_sparse_topologies() {
    let path = qasm_fixture("place-topo", &dqc_workloads::qft(16));
    let file = path.to_str().unwrap();
    let block = run(&[
        "compile",
        file,
        "--nodes",
        "4",
        "--topology",
        "linear",
        "--placement",
        "block",
        "--json",
    ]);
    let topo = run(&[
        "compile",
        file,
        "--nodes",
        "4",
        "--topology",
        "linear",
        "--placement",
        "topo",
        "--json",
    ]);
    assert!(block.status.success() && topo.status.success());
    let block = String::from_utf8(block.stdout).unwrap();
    let topo = String::from_utf8(topo.stdout).unwrap();
    assert!(
        json_number(&topo, "epr_cost") <= json_number(&block, "epr_cost"),
        "topo placement must not lose to the identity block map:\n{block}\n{topo}"
    );
    // The placement object is reported with the final block→node map.
    assert!(topo.contains("\"placement\":{\"strategy\":\"topo\""), "{topo}");
    assert!(topo.contains("\"node_map\":["), "{topo}");
    assert!(json_number(&topo, "final_epr_cost") <= json_number(&topo, "initial_epr_cost"));
    std::fs::remove_file(path).ok();
}

#[test]
fn oee_placement_is_bit_identical_to_the_default() {
    // --placement oee is the default pipeline, on sparse topologies too.
    let path = qasm_fixture("place-oee", &dqc_workloads::qft(12));
    let file = path.to_str().unwrap();
    let default = run(&["compile", file, "--nodes", "4", "--topology", "linear", "--json"]);
    let placement = run(&[
        "compile",
        file,
        "--nodes",
        "4",
        "--topology",
        "linear",
        "--placement",
        "oee",
        "--json",
    ]);
    assert!(default.status.success() && placement.status.success());
    let default = String::from_utf8(default.stdout).unwrap();
    let placement = String::from_utf8(placement.stdout).unwrap();
    for key in ["total_comms", "tp_comms", "epr_cost", "epr_pairs", "makespan", "swaps"] {
        assert_eq!(json_number(&default, key), json_number(&placement, key), "{key}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn batch_reports_epr_cost_totals_per_placement() {
    let run_pl = |pl: &str| {
        let out = run(&[
            "batch",
            "--suite",
            "--nodes",
            "4",
            "--topology",
            "linear",
            "--placement",
            pl,
            "--jobs",
            "2",
            "--json",
        ]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let totals = |json: &str| {
        let at = json.find("\"totals\":").unwrap();
        json_number(&json[at..], "epr_cost")
    };
    let block = run_pl("block");
    let topo = run_pl("topo");
    assert!(
        totals(&topo) < totals(&block),
        "suite-wide, topo placement must beat the block identity map: {} vs {}",
        totals(&topo),
        totals(&block)
    );
    assert!(topo.contains("\"placement\":\"topo\""));
}

#[test]
fn buffer_flag_reports_buffering_and_never_loses() {
    let path = qasm_fixture("buffer", &dqc_workloads::qft(16));
    let file = path.to_str().unwrap();
    let base = run(&["compile", file, "--nodes", "4", "--topology", "linear", "--json"]);
    let pre = run(&[
        "compile",
        file,
        "--nodes",
        "4",
        "--topology",
        "linear",
        "--buffer",
        "prefetch:4",
        "--json",
    ]);
    assert!(base.status.success() && pre.status.success());
    let base = String::from_utf8(base.stdout).unwrap();
    let pre = String::from_utf8(pre.stdout).unwrap();
    assert!(base.contains("\"policy\":\"on-demand\""), "{base}");
    assert!(pre.contains("\"policy\":\"prefetch:4\""), "{pre}");
    assert!(
        json_number(&pre, "makespan") <= json_number(&base, "makespan") + 1e-9,
        "prefetch must not lose to on-demand:\n{base}\n{pre}"
    );
    // Same physical EPR accounting; only the schedule moves.
    assert_eq!(json_number(&pre, "epr_pairs"), json_number(&base, "epr_pairs"));
    for key in ["prefetch_hits", "prefetch_misses", "hit_rate", "mean_epr_wait", "mean_pair_age"] {
        assert!(pre.contains(&format!("\"{key}\":")), "missing {key} in {pre}");
    }
    assert!(pre.contains("\"occupancy_hist\":["), "{pre}");
    std::fs::remove_file(path).ok();
}

#[test]
fn buffered_batch_reports_suite_wide_buffering() {
    let out = run(&[
        "batch",
        "--suite",
        "--nodes",
        "4",
        "--topology",
        "linear",
        "--buffer",
        "prefetch:4",
        "--jobs",
        "2",
        "--json",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"buffering\":{\"policy\":\"prefetch:4\""), "{json}");
    let at = json.find("\"buffering\":").unwrap();
    assert!(json_number(&json[at..], "prefetch_hits") > 0.0, "suite must hit the buffer: {json}");
}

#[test]
fn bad_buffer_policy_is_a_usage_error() {
    let path = qasm_fixture("buffer-bad", &dqc_workloads::bv(9));
    let out = run(&["compile", path.to_str().unwrap(), "--nodes", "3", "--buffer", "psychic"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
    let out = run(&["compile", path.to_str().unwrap(), "--nodes", "3", "--buffer", "prefetch:0"]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_file(path).ok();
}

#[test]
fn removed_partition_alias_is_a_usage_error() {
    let path = qasm_fixture("partition-alias", &dqc_workloads::bv(9));
    for argv in [
        &["compile", path.to_str().unwrap(), "--nodes", "3", "--partition", "oee"][..],
        &["batch", "--suite", "--nodes", "4", "--partition", "block"][..],
    ] {
        let out = run(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option '--partition'"), "{stderr}");
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_topology_is_a_usage_error() {
    let path = qasm_fixture("topo-bad", &dqc_workloads::bv(9));
    let file = path.to_str().unwrap();
    let out = run(&["compile", file, "--nodes", "3", "--topology", "moebius"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown topology"));
    // Zero relay budget on a sparse machine is caught by hardware
    // validation and surfaced as usage too.
    let out = run(&["compile", file, "--nodes", "3", "--topology", "linear", "--comm-qubits", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("communication qubits"));
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_usage_exits_2_with_usage_text() {
    let out = run(&["compile", "x.qasm"]); // no --nodes
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_input_exits_1() {
    let out = run(&["compile", "/nonexistent.qasm", "--nodes", "2"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
