//! Optical power arithmetic: dBm, milliwatts and dB ratios.

/// Converts power in dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts power in milliwatts to dBm. Returns `-inf` for zero power.
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * mw.log10()
    }
}

/// Converts a linear power ratio to dB. Returns `-inf` for a zero ratio.
#[inline]
pub fn linear_to_db(ratio: f64) -> f64 {
    if ratio <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * ratio.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Converts a dB ratio to a linear factor: the inverse that
    /// [`linear_to_db`] must round-trip.
    fn db_to_linear(db: f64) -> f64 {
        10f64.powf(db / 10.0)
    }

    #[test]
    fn dbm_anchors() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
        assert!((dbm_to_mw(-30.0) - 0.001).abs() < 1e-12);
        assert!((mw_to_dbm(1.0)).abs() < 1e-12);
        assert!((mw_to_dbm(100.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn roundtrips() {
        for dbm in [-40.0, -25.0, -10.0, 0.0, 4.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        for db in [-30.0, -3.0, 0.0, 17.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
        }
    }

    #[test]
    fn db_halving() {
        assert!((db_to_linear(-3.0103) - 0.5).abs() < 1e-4);
        assert!((linear_to_db(0.5) + 3.0103).abs() < 1e-4);
    }

    #[test]
    fn zero_power_is_neg_infinity() {
        assert_eq!(mw_to_dbm(0.0), f64::NEG_INFINITY);
        assert_eq!(linear_to_db(0.0), f64::NEG_INFINITY);
        assert_eq!(mw_to_dbm(-1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn composition_adds_in_db() {
        let p_in = 2.0; // dBm
        let gain = 18.0; // dB
        let loss = -30.0; // dB
        let out_mw = dbm_to_mw(p_in) * db_to_linear(gain) * db_to_linear(loss);
        assert!((mw_to_dbm(out_mw) - (p_in + gain + loss)).abs() < 1e-9);
    }
}
