//! Seeded input generation. Every workload's inputs are a pure
//! function of `(workload, seed)` and are built before any clock starts;
//! the program under test only ever sees the generated permutations.

use benes_bench::{random_bpc, random_f_member};
use benes_engine::workload::{
    hard_permutation, mixed_workload, omega_member, random_permutation, Rng64,
};
use benes_perm::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Network order of the engine and wire workloads (`N = 256`).
pub const ORDER: u32 = 8;
/// Plan-cache capacity the engines are built with.
pub const CACHE_CAPACITY: usize = 1024;
/// Distinct zero-set-up inputs cycled by `engine-selfroute`: 16× the
/// cache capacity, so a cache of that size could not hold them.
pub const SELFROUTE_POOL: usize = 16 * CACHE_CAPACITY;
/// Hard permutations `engine-setup` draws from: three times the cache,
/// so about a third of the draws hit and every miss evicts. (At twice
/// the cache, half hit, and the latency median falls in the gap between
/// the hit and the miss modes, where it jumps from run to run.)
pub const SETUP_POOL: usize = 3 * CACHE_CAPACITY;
/// Length of the uniform draw sequence over the setup pool (cycled).
pub const SETUP_DRAWS: usize = 1 << 18;
/// Length of the mixed wire stream (cycled; its hard permutations
/// outnumber the cache several times, so a second pass sees the same
/// hit pattern as the first).
pub const SERVE_STREAM: usize = 16 * CACHE_CAPACITY;
/// Fleet round size: `2^12` elements, 192 units of `2^6` per round.
pub const FLEET_ORDER: u32 = 12;
/// Fresh fleet round inputs (cycled only if a run outlasts them; each
/// pass submits ~96 units per shard per round, far past the cache).
pub const FLEET_ROUNDS: usize = 512;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineSelfroute,
    EngineSetup,
    ServeOpen,
    FleetRounds,
}

impl Workload {
    pub const ALL: [Self; 4] =
        [Self::EngineSelfroute, Self::EngineSetup, Self::ServeOpen, Self::FleetRounds];

    pub fn name(self) -> &'static str {
        match self {
            Self::EngineSelfroute => "engine-selfroute",
            Self::EngineSetup => "engine-setup",
            Self::ServeOpen => "serve-open",
            Self::FleetRounds => "fleet-rounds",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Per-workload salt so two workloads never share a stream for the
    /// same seed.
    fn salt(self) -> u64 {
        match self {
            Self::EngineSelfroute => 0x5e1f_0000,
            Self::EngineSetup => 0x5e70_0000,
            Self::ServeOpen => 0x0be0_0000,
            Self::FleetRounds => 0xf1ee_0000,
        }
    }
}

fn stream_seed(w: Workload, seed: u64) -> u64 {
    Rng64::new(seed ^ w.salt()).next_u64()
}

/// `engine-selfroute`: fresh members of `F(8) ∪ Ω(8)`, a third each
/// random BPC (the class of the paper's Table I), random `Ω` members,
/// and random `F` members.
pub fn selfroute_inputs(seed: u64) -> Vec<Permutation> {
    let s = stream_seed(Workload::EngineSelfroute, seed);
    let mut rng = StdRng::seed_from_u64(s);
    let mut rng64 = Rng64::new(s);
    (0..SELFROUTE_POOL)
        .map(|i| match i % 3 {
            0 => random_bpc(&mut rng, ORDER).to_permutation(),
            1 => omega_member(&mut rng64, ORDER),
            _ => random_f_member(&mut rng, ORDER),
        })
        .collect()
}

/// `engine-setup`: a pool of hard permutations (outside `F ∪ Ω`) and a
/// uniform draw sequence of pool indices.
pub fn setup_inputs(seed: u64) -> (Vec<Permutation>, Vec<u32>) {
    let mut rng = Rng64::new(stream_seed(Workload::EngineSetup, seed));
    let pool: Vec<Permutation> =
        (0..SETUP_POOL).map(|_| hard_permutation(&mut rng, ORDER)).collect();
    let draws = (0..SETUP_DRAWS).map(|_| rng.below(SETUP_POOL as u64) as u32).collect();
    (pool, draws)
}

/// `serve-open`: the engine crate's mixed stream at order 8 (Table I
/// BPC, `Ω` members, a repeating hard pool, fresh hard permutations).
pub fn serve_inputs(seed: u64) -> Vec<Permutation> {
    mixed_workload(ORDER, SERVE_STREAM, stream_seed(Workload::ServeOpen, seed))
}

/// `fleet-rounds`: uniformly random `2^12` permutations.
pub fn fleet_inputs(seed: u64) -> Vec<Permutation> {
    let mut rng = Rng64::new(stream_seed(Workload::FleetRounds, seed));
    (0..FLEET_ROUNDS).map(|_| random_permutation(&mut rng, 1 << FLEET_ORDER)).collect()
}

/// A workload's complete input set as bytes (little-endian destination
/// words, then draw indices), for determinism checks.
#[cfg(test)]
pub fn input_bytes(w: Workload, seed: u64) -> Vec<u8> {
    let (perms, draws) = match w {
        Workload::EngineSelfroute => (selfroute_inputs(seed), Vec::new()),
        Workload::EngineSetup => setup_inputs(seed),
        Workload::ServeOpen => (serve_inputs(seed), Vec::new()),
        Workload::FleetRounds => (fleet_inputs(seed), Vec::new()),
    };
    perms
        .iter()
        .flat_map(|p| p.destinations().iter().copied())
        .chain(draws)
        .flat_map(u32::to_le_bytes)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::is_in_f;
    use benes_perm::omega::is_omega;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = input_bytes(w, 7);
            assert_eq!(a, input_bytes(w, 7), "{}: seed 7 must repeat", w.name());
            assert_ne!(a, input_bytes(w, 8), "{}: seeds 7 and 8 must differ", w.name());
        }
    }

    #[test]
    fn selfroute_inputs_are_all_in_f_or_omega() {
        let inputs = selfroute_inputs(1);
        assert_eq!(inputs.len(), SELFROUTE_POOL);
        let outside = inputs.iter().filter(|d| !is_in_f(d) && !is_omega(d)).count();
        assert_eq!(outside, 0, "engine-selfroute must be 100% F ∪ Ω");
    }

    #[test]
    fn setup_inputs_are_all_outside_f_and_omega() {
        let (pool, draws) = setup_inputs(1);
        assert_eq!(pool.len(), SETUP_POOL);
        let inside = pool.iter().filter(|d| is_in_f(d) || is_omega(d)).count();
        assert_eq!(inside, 0, "engine-setup must be 0% F ∪ Ω");
        assert!(draws.iter().all(|&i| (i as usize) < SETUP_POOL));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
