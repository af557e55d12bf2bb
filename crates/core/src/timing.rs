//! Cycle formulas shared by the functional engines and the emulator.

use crate::config::NfpConfig;

/// Cycles one query occupies the MLP engine's `mac_rows x mac_cols`
/// array on a `rows x cols` layer matrix. The paper's fixed
/// weight-stationary dataflow computes one full tile per cycle, so the
/// matrix costs `rows.div_ceil(mac_rows) * cols.div_ceil(mac_cols)`
/// cycles. `ng-timeloop`'s best mapping of the same layer ties this
/// exactly on every MAC array (pinned by `tests/paper_reproduction.rs`).
pub fn layer_tile_cycles(rows: usize, cols: usize, nfp: &NfpConfig) -> u64 {
    let (mac_rows, mac_cols) = (nfp.mac_rows.max(1) as usize, nfp.mac_cols.max(1) as usize);
    (rows.div_ceil(mac_rows) * cols.div_ceil(mac_cols)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_full_array_tile_per_cycle() {
        let nfp = NfpConfig::default();
        assert_eq!(layer_tile_cycles(64, 64, &nfp), 1);
        assert_eq!(layer_tile_cycles(65, 64, &nfp), 2);
        assert_eq!(layer_tile_cycles(128, 128, &nfp), 4);
        let narrow = NfpConfig { mac_rows: 16, mac_cols: 16, ..NfpConfig::default() };
        assert_eq!(layer_tile_cycles(64, 64, &narrow), 16);
    }
}
