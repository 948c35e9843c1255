//! ReCoN — the Redistribution and Coordination NoC (§5.4).
//!
//! A multistage butterfly network of `n·(log2(n)+1)` 2×2 switches sits
//! between PE rows, time-multiplexed across them. When a row holding
//! outlier μBs emits its column outputs, ReCoN routes each outlier's Lower
//! half from its pruned-slot column toward the Upper half's column
//! (Swap stages), injects the pruned column's pass-through iAcc, and
//! executes Merge: `iAcc + (-1)^s·iAct + upper·iAct·2^(−mb/2) +
//! lower·iAct·2^(−mb)` — the exact FP outlier partial sum.
//!
//! The functional result here is exact: halves merge in fixed point with
//! `mb` fractional bits, so no shift drops a bit. Switch
//! occupancy is modelled per stage along the butterfly bit-correction
//! paths; the per-row switch-op counters are used by the energy model, and
//! cross-row arbitration (the sync-buffer contention of Fig. 16(b)) lives
//! in [`crate::perf`].

use microscopiq_core::microblock::PermEntry;

/// One column's contribution arriving at ReCoN from a PE row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnInput {
    /// Inlier column: the accumulated partial sum (fixed point), passed
    /// straight down.
    Psum(i64),
    /// Offloaded outlier half: the raw half product and the pass-through
    /// accumulation (fixed point).
    Offload {
        /// Raw INT product `half_value · iAct` (not yet shifted).
        res: i64,
        /// Incoming accumulation at fixed point.
        iacc: i64,
    },
}

/// The outcome of routing one row's outputs through ReCoN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteResult {
    /// Reordered, merged partial sums per column (fixed point).
    pub outputs: Vec<i64>,
    /// Switch operations executed (pass/swap/merge), for the energy model.
    pub switch_ops: usize,
    /// Number of merge operations (= outliers processed).
    pub merges: usize,
    /// Pipeline stages traversed (`log2(n)+1`).
    pub stages: usize,
}

/// A ReCoN instance spanning `n` columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReCoN {
    n: usize,
}

impl ReCoN {
    /// Creates a network over `n` columns.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of two ≥ 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ReCoN width must be a power of two"
        );
        Self { n }
    }

    /// Network width.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of pipeline stages: `log2(n) + 1` (input/output stages
    /// included per the paper's `n(log2 n + 1)` switch count).
    pub fn stages(&self) -> usize {
        (self.n as u32).ilog2() as usize + 1
    }

    /// Total switch count.
    pub fn switch_count(&self) -> usize {
        self.n * self.stages()
    }

    /// Routes one row's column outputs.
    ///
    /// * `inputs[c]` — what column `c`'s PE emitted;
    /// * `perm` — the row's permutation entries (μB-relative locations are
    ///   expected to be pre-offset to absolute columns);
    /// * `signed_iact[k]` — `(-1)^s · iAct` for outlier `k` (hidden-bit
    ///   contribution), already sign-corrected;
    /// * `mantissa_bits` — `mb` of the outlier format (2 for e1m2, 4 for
    ///   e3m4).
    ///
    /// # Panics
    ///
    /// Panics if an entry references a column without an
    /// [`ColumnInput::Offload`], or the input width mismatches.
    pub fn route(
        &self,
        inputs: &[ColumnInput],
        perm: &[PermEntry],
        signed_iact: &[i64],
        mantissa_bits: u32,
    ) -> RouteResult {
        assert_eq!(inputs.len(), self.n, "input width mismatch");
        assert_eq!(perm.len(), signed_iact.len(), "one iAct per outlier");
        let half = mantissa_bits / 2;

        let mut outputs: Vec<i64> = inputs
            .iter()
            .map(|inp| match inp {
                ColumnInput::Psum(v) => *v,
                // Pruned/outlier columns are rewritten below.
                ColumnInput::Offload { iacc, .. } => *iacc,
            })
            .collect();

        // Every live column occupies one switch port per stage (Pass).
        let mut switch_ops = self.n * self.stages();
        let mut merges = 0;

        for (k, e) in perm.iter().enumerate() {
            let u = e.upper_loc as usize;
            let l = e.lower_loc as usize;
            let (u_res, u_iacc) = match inputs[u] {
                ColumnInput::Offload { res, iacc } => (res, iacc),
                other => panic!("upper column {u} is not an offload: {other:?}"),
            };
            let (l_res, _l_iacc) = match inputs[l] {
                ColumnInput::Offload { res, iacc } => (res, iacc),
                other => panic!("lower column {l} is not an offload: {other:?}"),
            };
            // Merge (‖): select the Upper result's iAcc (the Lower column's
            // iAcc was already passed through during Swap), shift the
            // mantissa halves into place, add the hidden bit. At mb
            // fractional bits: hidden ≪ mb, upper half ≪ mb/2, lower ≪ 0 —
            // the lossless form of the paper's ≫mb/2 / ≫mb shifts.
            let merged = u_iacc + (signed_iact[k] << mantissa_bits) + (u_res << half) + l_res;
            outputs[u] = merged;
            // The pruned column passes its own iAcc (already set above).
            // Swap ops: one per corrected address bit of l→u, plus the
            // merge itself.
            let distance = (u ^ l).count_ones() as usize;
            switch_ops += distance;
            merges += 1;
        }
        switch_ops += merges;

        RouteResult {
            outputs,
            switch_ops,
            merges,
            stages: self.stages(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_walkthrough_figure8() {
        // 4-wide μB, outlier 1.5 = 1.10₂ (s=0, m=10) at column 2, Lower at
        // column 3. iAct = 32, iAcc = 8 for all columns. Inliers at columns
        // 0, 1 computed psums 10 and 10 (arbitrary). Expected merged outlier
        // psum: 8 + 1.5·32 = 56.
        let recon = ReCoN::new(4);
        let mb = 2u32; // e1m2
        let fp = |v: i64| v << mb; // fixed point with mb fractional bits
        let inputs = [
            ColumnInput::Psum(fp(10)),
            ColumnInput::Psum(fp(10)),
            ColumnInput::Offload {
                res: 32,
                iacc: fp(8),
            }, // upper {0,1}·32
            ColumnInput::Offload {
                res: 0,
                iacc: fp(8),
            }, // lower {0,0}
        ];
        let perm = [PermEntry {
            upper_loc: 2,
            lower_loc: 3,
        }];
        let got = recon.route(&inputs, &perm, &[32], mb);
        assert_eq!(got.outputs[2], fp(56), "merged outlier psum");
        assert_eq!(got.outputs[3], fp(8), "pruned column passes iAcc");
        assert_eq!(got.outputs[0], fp(10));
        assert_eq!(got.merges, 1);
    }

    #[test]
    fn negative_outlier_walkthrough() {
        // Outlier −1.5: halves {s=1,m1=1}→−1 and {s=1,m0=0}→0, hidden −1.
        let recon = ReCoN::new(4);
        let mb = 2u32;
        let fp = |v: i64| v << mb;
        let inputs = [
            ColumnInput::Psum(fp(0)),
            ColumnInput::Offload {
                res: -32,
                iacc: fp(8),
            },
            ColumnInput::Offload {
                res: 0,
                iacc: fp(8),
            },
            ColumnInput::Psum(fp(0)),
        ];
        let perm = [PermEntry {
            upper_loc: 1,
            lower_loc: 2,
        }];
        let got = recon.route(&inputs, &perm, &[-32], mb);
        assert_eq!(got.outputs[1], fp(8 - 48)); // 8 − 1.5·32
        assert_eq!(got.outputs[2], fp(8));
    }

    #[test]
    fn e3m4_merge_is_exact_for_all_mantissas() {
        let recon = ReCoN::new(8);
        let mb = 4u32;
        for mant in 0..16u32 {
            for sign in [1i64, -1] {
                for iact in [-77i64, 13, 127] {
                    let hi = ((mant >> 2) & 3) as i64 * sign;
                    let lo = (mant & 3) as i64 * sign;
                    let iacc = 1000i64 << mb;
                    let mut inputs = vec![ColumnInput::Psum(0); 8];
                    inputs[5] = ColumnInput::Offload {
                        res: hi * iact,
                        iacc,
                    };
                    inputs[2] = ColumnInput::Offload {
                        res: lo * iact,
                        iacc: 0,
                    };
                    let perm = [PermEntry {
                        upper_loc: 5,
                        lower_loc: 2,
                    }];
                    let got = recon.route(&inputs, &perm, &[sign * iact], mb);
                    let value = sign as f64 * (1.0 + mant as f64 / 16.0);
                    let expect = 1000 * 16 + (value * iact as f64 * 16.0).round() as i64;
                    assert_eq!(
                        got.outputs[5], expect,
                        "mant={mant} sign={sign} iact={iact}"
                    );
                }
            }
        }
    }

    #[test]
    fn multiple_merges_in_one_row() {
        let recon = ReCoN::new(8);
        let mb = 2u32;
        let fp = |v: i64| v << mb;
        let mut inputs = vec![ColumnInput::Psum(fp(1)); 8];
        inputs[0] = ColumnInput::Offload {
            res: 10,
            iacc: fp(2),
        };
        inputs[3] = ColumnInput::Offload {
            res: 10,
            iacc: fp(0),
        };
        inputs[4] = ColumnInput::Offload {
            res: -20,
            iacc: fp(5),
        };
        inputs[6] = ColumnInput::Offload {
            res: 0,
            iacc: fp(0),
        };
        let perm = [
            PermEntry {
                upper_loc: 0,
                lower_loc: 3,
            },
            PermEntry {
                upper_loc: 4,
                lower_loc: 6,
            },
        ];
        let got = recon.route(&inputs, &perm, &[10, -20], mb);
        // Outlier 0: m={1,1} → 1.75·10 + 2 = 19.5 → fp 78.
        assert_eq!(got.outputs[0], (19.5 * 4.0) as i64);
        // Outlier 1: m={1,0} → −1.5·20 + 5 = −25 → fp −100.
        assert_eq!(got.outputs[4], -100);
        assert_eq!(got.merges, 2);
    }

    #[test]
    fn switch_counts_match_topology() {
        let recon = ReCoN::new(64);
        assert_eq!(recon.stages(), 7); // log2(64)+1
        assert_eq!(recon.switch_count(), 64 * 7); // n(log2 n + 1)
    }

    #[test]
    fn switch_ops_grow_with_routing_distance() {
        let recon = ReCoN::new(8);
        let mb = 2u32;
        let mk = |u: u8, l: u8| {
            let mut inputs = vec![ColumnInput::Psum(0); 8];
            inputs[u as usize] = ColumnInput::Offload { res: 0, iacc: 0 };
            inputs[l as usize] = ColumnInput::Offload { res: 0, iacc: 0 };
            recon
                .route(
                    &inputs,
                    &[PermEntry {
                        upper_loc: u,
                        lower_loc: l,
                    }],
                    &[0],
                    mb,
                )
                .switch_ops
        };
        // Distance 1 (adjacent) vs distance 3 (0b000 ↔ 0b111).
        assert!(mk(0, 7) > mk(0, 1));
    }

    #[test]
    #[should_panic(expected = "is not an offload")]
    fn merge_requires_offload_columns() {
        let recon = ReCoN::new(4);
        let inputs = vec![ColumnInput::Psum(0); 4];
        let _ = recon.route(
            &inputs,
            &[PermEntry {
                upper_loc: 0,
                lower_loc: 1,
            }],
            &[0],
            2,
        );
    }
}
