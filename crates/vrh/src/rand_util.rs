//! Small shared randomness helpers.

use cyclops_geom::noise::{box_muller, box_muller2, U1_MIN};
use rand::Rng;

/// One standard-normal draw: two uniforms from `rng` through the shared
/// [`cyclops_geom::noise::box_muller`] kernel (keeps the workspace's `rand`
/// usage to the core API). Galvo jitter and the channel's scintillation
/// draw their own uniforms but go through the same kernel.
pub fn gauss<R: Rng>(rng: &mut R) -> f64 {
    let (u1, u2) = gauss_uniforms(rng);
    box_muller(u1, u2)
}

/// Two standard-normal draws: the values of two [`gauss`] calls, from the
/// same four uniforms in the same order, through the paired
/// [`cyclops_geom::noise::box_muller2`] kernel. Sites that draw several
/// deviates in a row take them in pairs.
pub fn gauss2<R: Rng>(rng: &mut R) -> [f64; 2] {
    let (a1, a2) = gauss_uniforms(rng);
    let (b1, b2) = gauss_uniforms(rng);
    box_muller2([a1, b1], [a2, b2])
}

/// Six standard-normal draws as three [`gauss2`] pairs: the values of six
/// [`gauss`] calls, e.g. a pose's translation and rotation noise.
pub fn gauss6<R: Rng>(rng: &mut R) -> [f64; 6] {
    let [a, b] = gauss2(rng);
    let [c, d] = gauss2(rng);
    let [e, f] = gauss2(rng);
    [a, b, c, d, e, f]
}

/// Makes exactly the RNG draws of one [`gauss`] call and discards them:
/// keeps a stream in step when the deviate is provably not needed.
pub fn skip_gauss<R: Rng>(rng: &mut R) {
    gauss_uniforms(rng);
}

#[inline]
fn gauss_uniforms<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(U1_MIN..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gauss_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let g = gauss(&mut rng);
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gauss2_and_gauss6_are_gauss_calls() {
        let mut a = StdRng::seed_from_u64(4);
        let mut b = a.clone();
        for _ in 0..10_000 {
            let pair = gauss2(&mut a);
            let singles = [(); 2].map(|_| gauss(&mut b));
            assert_eq!(pair.map(f64::to_bits), singles.map(f64::to_bits));
            assert_eq!(a, b);
            let six = gauss6(&mut a);
            let singles = [(); 6].map(|_| gauss(&mut b));
            assert_eq!(six.map(f64::to_bits), singles.map(f64::to_bits));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn skip_gauss_advances_the_stream_like_gauss() {
        let mut a = StdRng::seed_from_u64(2);
        let mut b = a.clone();
        gauss(&mut a);
        skip_gauss(&mut b);
        assert_eq!(a, b);
    }
}
