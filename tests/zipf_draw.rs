//! Pins of `workloads::service_load::Zipf`'s draws: every key ring, request
//! schedule and arrival stream built from a Zipf sampler (the benchmark's
//! rings, fig11/table6/fig12/table7, the service's real-thread tests) is a
//! function of exactly these ranks, so any change to how `sample` finds a
//! rank must leave each checksum below unedited.
//!
//! Each case folds 2^16 draws from one fixed seed into an FNV-1a hash.
//! The cases span the shapes the repo uses: a single rank, the two-key
//! uniform ring of `mutex_convoy`, fig11's 512 keys, `mutex_zipf`'s 4096,
//! and a wide, gently skewed 65536.

use simcore::Rng;
use workloads::service_load::Zipf;

const DRAWS: usize = 1 << 16;

/// `(n, s, seed, checksum)`.
const PINS: &[(usize, f64, u64, u64)] = &[
    (1, 1.1, 0x21F1, 0xeb05_052e_a5b6_2325),
    (2, 0.0, 0x21F2, 0x4399_2a39_1004_e3ba),
    (100, 1.1, 0x21F3, 0xd81f_090e_aad4_62d5),
    (512, 1.1, 0x21F4, 0xf73f_f3e6_dbcb_77ba),
    (4096, 1.1, 0x21F5, 0xe78e_46c2_4812_f9c3),
    (65536, 0.99, 0x21F6, 0xe1c8_eec3_04b8_6483),
];

fn checksum(n: usize, s: f64, seed: u64) -> u64 {
    let zipf = Zipf::new(n, s);
    let mut rng = Rng::new(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..DRAWS {
        let r = zipf.sample(&mut rng);
        assert!(r < n as u64, "Zipf({n}, {s}) drew rank {r}");
        h = (h ^ r).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[test]
fn fixed_seed_draws_match_their_pins() {
    for &(n, s, seed, pin) in PINS {
        let h = checksum(n, s, seed);
        assert_eq!(
            h, pin,
            "Zipf({n}, {s}) from seed {seed:#x}: checksum {h:#018x}"
        );
    }
}
