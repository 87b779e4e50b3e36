//! Deterministic workload generation for demos, benchmarks and tests.
//!
//! The engine's interesting behaviour only shows on a *mixed* stream —
//! cheap `F(n)` members, omega-routable permutations, arbitrary
//! permutations, and repeats that exercise the plan cache. This module
//! builds such streams reproducibly from a seed, with no external RNG
//! dependency (the build environment is offline; a splitmix64 generator
//! is all that is needed).

use benes_core::word::{self, Columns, MaskProgram};
use benes_core::{Benes, SwitchSettings, SwitchState};
use benes_perm::bpc::Bpc;
use benes_perm::Permutation;

/// A tiny deterministic RNG (splitmix64): statistically solid for
/// workload shuffling, trivially seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator with the given seed (any value is fine, including 0).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (`bound > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping; bias is < 2⁻⁶⁴·bound,
        // irrelevant for workload generation.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A uniformly random permutation of `0..len` (Fisher–Yates).
///
/// # Panics
///
/// Panics if `len == 0`.
#[must_use]
pub fn random_permutation(rng: &mut Rng64, len: usize) -> Permutation {
    assert!(len > 0, "permutation must have at least one element");
    let mut dest: Vec<u32> = (0..len as u32).collect(); // analyze:allow(truncating-cast): len ≤ 2^MAX_N
    for i in (1..len).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        dest.swap(i, j);
    }
    Permutation::from_destinations(dest).expect("shuffle of identity is a bijection")
}

/// A random permutation guaranteed to sit **outside** `F(n) ∪ Ω(n)`,
/// i.e. one that forces the engine's expensive fallback tier.
///
/// Rejection-samples random permutations, classifying each by routing it
/// (the planner's own zero-set-up test); at `n = 3` already ~61% of
/// `N!` is outside both classes (census: `|F(3)| = 11632`,
/// `|Ω(3)| = 4096` of `40320`), and the fraction grows towards 1
/// rapidly, so this terminates almost immediately.
///
/// # Panics
///
/// Panics if `n < 3`: exhaustive checking shows `F(2) ∪ Ω(2)` covers
/// **all** 24 permutations of 4 elements (and `F(1)` is everything), so
/// no hard permutation exists below `n = 3`.
#[must_use]
pub fn hard_permutation(rng: &mut Rng64, n: u32) -> Permutation {
    assert!(n >= 3, "every permutation of B(1) and B(2) is in F(n) ∪ Ω(n)");
    let len = 1usize << n;
    loop {
        let d = random_permutation(rng, len);
        if crate::plan::zero_setup_plan(n, &d).is_none() {
            return d;
        }
    }
}

/// A uniformly random member of `Ω(n)`: choose random states for the
/// last `n` stages of `B(n)` (the omega half), keep the first `n − 1`
/// straight, and read off the permutation those settings realize.
///
/// # Panics
///
/// Panics if `n` is outside the supported network orders.
#[must_use]
pub fn omega_member(rng: &mut Rng64, n: u32) -> Permutation {
    let net = Benes::new(n);
    let mut settings = SwitchSettings::all_straight(n);
    for stage in (n as usize - 1)..net.stage_count() {
        for sw in 0..net.switches_per_stage() {
            if rng.next_u64() & 1 == 1 {
                settings.set(stage, sw, SwitchState::Cross);
            }
        }
    }
    // Route identity tags through the settings: `arrived[o]` is the input
    // that surfaced at output `o`, so the realized permutation is its
    // inverse.
    let identity = Permutation::identity(net.terminal_count());
    let program = MaskProgram::from_settings(&settings);
    let arrived = word::route(n, &identity, Columns::Given(&program), None)
        .expect("program built for this order")
        .outputs();
    Permutation::from_destinations(arrived)
        .expect("any switch assignment permutes")
        .inverse()
}

/// The named `BPC(n)` permutations of the paper's Table I (all of which
/// self-route with zero set-up: `BPC ⊆ F`). The matrix-shaped members
/// (transpose, shuffled row major, bit shuffle) only exist for even `n`
/// and are omitted otherwise.
#[must_use]
pub fn table1_permutations(n: u32) -> Vec<(&'static str, Permutation)> {
    let mut perms = vec![
        ("bit-reversal", Bpc::bit_reversal(n).to_permutation()),
        ("vector-reversal", Bpc::vector_reversal(n).to_permutation()),
        ("perfect-shuffle", Bpc::perfect_shuffle(n).to_permutation()),
        ("unshuffle", Bpc::unshuffle(n).to_permutation()),
    ];
    if n.is_multiple_of(2) {
        perms.push(("matrix-transpose", Bpc::matrix_transpose(n).to_permutation()));
        perms.push(("shuffled-row-major", Bpc::shuffled_row_major(n).to_permutation()));
        perms.push(("bit-shuffle", Bpc::bit_shuffle(n).to_permutation()));
    }
    perms
}

/// A reproducible mixed workload of `requests` permutations on `B(n)`:
///
/// * ~40% Table I `BPC(n)` permutations (self-route tier),
/// * ~10% random `Ω(n)` members (omega-bit or self-route tier),
/// * ~35% drawn from a small pool of *hard* permutations, each
///   appearing several times (first occurrence pays set-up, repeats hit
///   the plan cache),
/// * the rest fresh hard permutations (always pay set-up).
///
/// The stream order is shuffled deterministically from `seed`, so a
/// given `(n, requests, seed)` triple always produces byte-identical
/// workloads — on every platform.
///
/// # Panics
///
/// Panics if `n < 3` (no hard permutations exist below `B(3)`, see
/// [`hard_permutation`]) or `requests == 0`.
#[must_use]
pub fn mixed_workload(n: u32, requests: usize, seed: u64) -> Vec<Permutation> {
    assert!(requests > 0, "workload must contain at least one request");
    let mut rng = Rng64::new(seed);
    let mut stream = Vec::with_capacity(requests);

    let bpc: Vec<Permutation> =
        table1_permutations(n).into_iter().map(|(_, p)| p).collect();
    let bpc_count = requests * 2 / 5;
    for i in 0..bpc_count {
        stream.push(bpc[i % bpc.len()].clone());
    }

    let omega_count = requests / 10;
    for _ in 0..omega_count {
        stream.push(omega_member(&mut rng, n));
    }

    // A small pool of hard permutations, cycled so each repeats.
    let repeat_count = requests * 35 / 100;
    let pool_size = (repeat_count / 4).max(1);
    let pool: Vec<Permutation> =
        (0..pool_size).map(|_| hard_permutation(&mut rng, n)).collect();
    for i in 0..repeat_count {
        stream.push(pool[i % pool.len()].clone());
    }

    while stream.len() < requests {
        stream.push(hard_permutation(&mut rng, n));
    }

    // Fisher–Yates shuffle of the stream order.
    for i in (1..stream.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        stream.swap(i, j);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_perm::omega::is_omega;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng64::new(1);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..50 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn random_permutation_is_valid_and_varied() {
        let mut rng = Rng64::new(42);
        let a = random_permutation(&mut rng, 64);
        let b = random_permutation(&mut rng, 64);
        assert_eq!(a.len(), 64);
        assert_ne!(a, b, "consecutive draws should differ");
    }

    #[test]
    fn hard_permutations_defeat_the_cheap_tiers() {
        let mut rng = Rng64::new(3);
        for n in [3u32, 4, 5] {
            let d = hard_permutation(&mut rng, n);
            assert!(!benes_core::is_in_f(&d));
            assert!(!is_omega(&d));
        }
    }

    #[test]
    fn omega_members_are_in_omega() {
        let mut rng = Rng64::new(5);
        for n in [1u32, 2, 3, 4] {
            for _ in 0..5 {
                let d = omega_member(&mut rng, n);
                assert!(is_omega(&d), "generated {d} claims Ω({n}) membership");
            }
        }
    }

    #[test]
    fn table1_members_self_route() {
        for (name, d) in table1_permutations(4) {
            assert!(benes_core::is_in_f(&d), "Table I `{name}` must be in F(4)");
        }
    }

    #[test]
    fn mixed_workload_is_reproducible_and_sized() {
        let a = mixed_workload(3, 100, 9);
        let b = mixed_workload(3, 100, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        // Different seeds reorder the stream.
        let c = mixed_workload(3, 100, 10);
        assert_ne!(a, c);
        // The mix contains repeats (cache fodder) and self-routables.
        let selfroutable = a.iter().filter(|d| benes_core::is_in_f(d)).count();
        assert!(selfroutable > 0);
        let mut sorted: Vec<&Permutation> = a.iter().collect();
        sorted.sort_by_key(|d| d.fingerprint());
        sorted.dedup();
        assert!(sorted.len() < a.len(), "workload must repeat some permutations");
    }
}
