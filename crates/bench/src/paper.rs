//! Published numbers from the paper, for side-by-side reporting.
//!
//! Only the headline per-row results of Table 3 and the per-benchmark
//! averages of Figs. 16–17 are recorded; `docs/paper.md` documents how our
//! measurements compare and why absolute values can differ (decomposition
//! constants, §“Known deviations”).

/// One published row of paper Table 3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperTable3Row {
    /// Row label, e.g. `QFT-100-10`.
    pub label: &'static str,
    /// “Tot Comm”.
    pub tot_comm: usize,
    /// “TP-Comm”.
    pub tp_comm: usize,
    /// “Peak # REM CX”.
    pub peak_rem_cx: f64,
    /// “Improv. factor”.
    pub improv: f64,
    /// “LAT-DEC factor”.
    pub lat_dec: f64,
}

/// Paper Table 3, verbatim.
pub const TABLE3: &[PaperTable3Row] = &[
    PaperTable3Row {
        label: "MCTR-100-10",
        tot_comm: 533,
        tp_comm: 220,
        peak_rem_cx: 10.0,
        improv: 3.15,
        lat_dec: 3.27,
    },
    PaperTable3Row {
        label: "MCTR-200-20",
        tot_comm: 972,
        tp_comm: 418,
        peak_rem_cx: 10.0,
        improv: 3.67,
        lat_dec: 3.83,
    },
    PaperTable3Row {
        label: "MCTR-300-30",
        tot_comm: 2044,
        tp_comm: 1112,
        peak_rem_cx: 10.0,
        improv: 2.76,
        lat_dec: 2.88,
    },
    PaperTable3Row {
        label: "RCA-100-10",
        tot_comm: 79,
        tp_comm: 54,
        peak_rem_cx: 5.5,
        improv: 2.78,
        lat_dec: 3.34,
    },
    PaperTable3Row {
        label: "RCA-200-20",
        tot_comm: 469,
        tp_comm: 224,
        peak_rem_cx: 5.5,
        improv: 1.41,
        lat_dec: 2.10,
    },
    PaperTable3Row {
        label: "RCA-300-30",
        tot_comm: 410,
        tp_comm: 204,
        peak_rem_cx: 5.5,
        improv: 2.00,
        lat_dec: 3.30,
    },
    PaperTable3Row {
        label: "QFT-100-10",
        tot_comm: 2068,
        tp_comm: 1784,
        peak_rem_cx: 18.0,
        improv: 8.70,
        lat_dec: 6.53,
    },
    PaperTable3Row {
        label: "QFT-200-20",
        tot_comm: 8351,
        tp_comm: 7566,
        peak_rem_cx: 18.0,
        improv: 9.10,
        lat_dec: 6.98,
    },
    PaperTable3Row {
        label: "QFT-300-30",
        tot_comm: 18835,
        tp_comm: 17348,
        peak_rem_cx: 18.0,
        improv: 9.24,
        lat_dec: 7.13,
    },
    PaperTable3Row {
        label: "BV-100-10",
        tot_comm: 9,
        tp_comm: 0,
        peak_rem_cx: 8.0,
        improv: 6.22,
        lat_dec: 4.33,
    },
    PaperTable3Row {
        label: "BV-200-20",
        tot_comm: 19,
        tp_comm: 0,
        peak_rem_cx: 8.0,
        improv: 6.63,
        lat_dec: 4.63,
    },
    PaperTable3Row {
        label: "BV-300-30",
        tot_comm: 29,
        tp_comm: 0,
        peak_rem_cx: 8.0,
        improv: 6.69,
        lat_dec: 4.69,
    },
    PaperTable3Row {
        label: "QAOA-100-10",
        tot_comm: 1448,
        tp_comm: 266,
        peak_rem_cx: 6.0,
        improv: 2.17,
        lat_dec: 1.83,
    },
    PaperTable3Row {
        label: "QAOA-200-20",
        tot_comm: 6787,
        tp_comm: 728,
        peak_rem_cx: 8.0,
        improv: 2.07,
        lat_dec: 1.79,
    },
    PaperTable3Row {
        label: "QAOA-300-30",
        tot_comm: 16053,
        tp_comm: 1138,
        peak_rem_cx: 6.0,
        improv: 2.05,
        lat_dec: 1.69,
    },
    PaperTable3Row {
        label: "UCCSD-8-4",
        tot_comm: 464,
        tp_comm: 0,
        peak_rem_cx: 4.0,
        improv: 1.94,
        lat_dec: 1.74,
    },
    PaperTable3Row {
        label: "UCCSD-12-6",
        tot_comm: 8973,
        tp_comm: 0,
        peak_rem_cx: 4.0,
        improv: 1.69,
        lat_dec: 1.55,
    },
    PaperTable3Row {
        label: "UCCSD-16-8",
        tot_comm: 33303,
        tp_comm: 0,
        peak_rem_cx: 5.0,
        improv: 1.60,
        lat_dec: 1.50,
    },
];

/// Looks up a published Table-3 row by its label.
pub fn table3_row(label: &str) -> Option<&'static PaperTable3Row> {
    TABLE3.iter().find(|r| r.label == label)
}

/// Paper Fig. 16 per-benchmark averages `(improv factor, LAT-DEC factor)`
/// against GP-TP, in the figure's order.
pub const FIG16: &[(&str, f64, f64)] = &[
    ("RCA", 1.3, 2.7),
    ("QAOA", 1.6, 2.4),
    ("MCTR", 2.8, 3.9),
    ("UCCSD", 3.3, 3.5),
    ("QFT", 5.3, 6.6),
    ("BV", 12.9, 10.3),
];

/// Paper Fig. 17(a) — no-commute / commute communication ratios for
/// (QFT, BV) at the three sizes.
pub const FIG17A: &[(&str, [f64; 3])] = &[("QFT", [4.35, 4.55, 4.62]), ("BV", [6.22, 6.63, 6.69])];

/// Paper Fig. 17(b) — Cat-only / hybrid communication ratios for
/// (RCA, QFT) at the three sizes.
pub const FIG17B: &[(&str, [f64; 3])] = &[("RCA", [1.35, 1.02, 1.17]), ("QFT", [4.2, 4.46, 4.56])];

/// Paper Fig. 17(c) — greedy / burst-greedy latency ratios for
/// (MCTR, QFT) at the three sizes.
pub const FIG17C: &[(&str, [f64; 3])] =
    &[("MCTR", [1.24, 1.17, 1.19]), ("QFT", [1.44, 1.56, 1.61])];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_is_complete_and_ordered() {
        assert_eq!(TABLE3.len(), 18);
        assert_eq!(TABLE3[0].label, "MCTR-100-10");
        assert!(table3_row("QFT-300-30").is_some());
        assert!(table3_row("NOPE").is_none());
    }

    #[test]
    fn paper_averages_match_abstract() {
        // The abstract quotes 4.1x average comm reduction and 3.5x latency.
        let improv: f64 = TABLE3.iter().map(|r| r.improv).sum::<f64>() / TABLE3.len() as f64;
        let lat: f64 = TABLE3.iter().map(|r| r.lat_dec).sum::<f64>() / TABLE3.len() as f64;
        assert!((improv - 4.1).abs() < 0.15, "improv avg {improv}");
        assert!((lat - 3.5).abs() < 0.15, "lat avg {lat}");
    }
}
