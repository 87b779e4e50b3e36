//! The classical external set-up algorithm for the Benes network
//! (Waksman, *A permutation network*, 1968 — the paper's reference \[10\]).
//!
//! This is the baseline the paper improves on: given an **arbitrary**
//! permutation `D`, compute a complete switch-state assignment in
//! `O(N log N)` sequential time, then route. The self-routing scheme of
//! [`crate::selfroute`] eliminates this set-up entirely — but only for
//! permutations in `F(n)`; with external set-up the Benes network realizes
//! all `N!` permutations ("if we allow the added capability of disabling
//! the self-setting logic … the network can realize all N! permutations",
//! §I).
//!
//! The algorithm is the standard looping 2-colouring: at each recursion
//! level, inputs `2i/2i+1` must split across the two subnetworks, and so
//! must outputs `2j/2j+1`; following the constraint chains around their
//! cycles assigns every terminal to the upper (0) or lower (1) subnetwork,
//! fixing the outer stages and inducing one half-size permutation per
//! subnetwork.
//!
//! # Looping in flattened coordinates
//!
//! [`setup_program`] runs that recursion without recursing. In the word
//! kernel's flattened coordinates ([`crate::word`]) stage `s` pairs the
//! positions that differ in bit `min(s, 2n−2−s)`, and no link moves an
//! element between stages. So the level-`k` sub-networks — the `2^k`
//! copies of `B(n−k)` the recursion reaches after `k` halvings — are
//! simply the position classes mod `2^k`, and the upper of a
//! sub-network's two halves is its positions with bit `k` clear. Its
//! input stage `k` and its output stage `2n−2−k` both pair bit `k`, so
//! one level of the recursion, over every sub-network at once, is one
//! pass over the whole array:
//!
//! 1. invert the current targets (`dest[p]` is the position the element
//!    at `p` must reach on leaving its level-`k` sub-network);
//! 2. walk the constraint loops, seeding each from the smallest upper
//!    position no loop has reached, sent to the upper sub-network — within
//!    a class, the order in which the recursion seeds its sub-problem.
//!    Every input a loop reaches through its own output goes up, the
//!    input feeding the partner output goes down, and the loop closes on
//!    the seed's partner;
//! 3. OR each switch's bit straight into the program's two columns: the
//!    input stage crosses where an upward input is the pair's lower one,
//!    the output stage where its output is;
//! 4. move each element to its side — the pair swapped where crossed —
//!    with bit `k` of its target set to that side, which keeps every
//!    class's targets inside the class for level `k + 1`.
//!
//! The middle stage is level `n − 1`, where both columns coincide. The
//! pass needs three `N`-sized scratch vectors per call instead of five
//! per sub-problem, and writes masks instead of per-switch settings. It
//! is the `benes_step` of SNIPPETS.md Snippet 1 (mmgroup): one loop pass
//! per pairing distance `1 << k` over the whole array, whose `res0` /
//! `res1` masks are these two columns. [`reference_setup`] keeps the
//! recursive form as the oracle: [`setup`] (the program read back per
//! switch) is bit-identical to it, exhaustively on `B(2)`/`B(3)` and
//! under random testing up to `B(10)`.
//!
//! # Examples
//!
//! ```
//! use benes_core::{Benes, waksman};
//! use benes_perm::Permutation;
//!
//! // Fig. 5's permutation is NOT self-routable — but external set-up
//! // handles it.
//! let net = Benes::new(2);
//! let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
//! let settings = waksman::setup(&d)?;
//! let out = net.route_with(&settings, &[0u32, 1, 2, 3]).unwrap();
//! assert_eq!(out, vec![3, 0, 2, 1]); // output D_i holds input i
//! # Ok::<(), benes_core::waksman::SetupError>(())
//! ```

use std::fmt;

use benes_perm::Permutation;

use crate::network::{SwitchSettings, SwitchState};
use crate::topology;
use crate::word::MaskProgram;

/// Error produced by [`setup`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SetupError {
    /// The permutation length is not a power of two.
    NotPowerOfTwo {
        /// The offending length.
        len: usize,
    },
    /// The permutation is larger than the largest supported network.
    TooLarge {
        /// The required order `n`.
        n: u32,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotPowerOfTwo { len } => {
                write!(f, "permutation length {len} is not a power of two")
            }
            Self::TooLarge { n } => write!(
                f,
                "network order {n} exceeds the supported maximum {}",
                topology::MAX_N
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// Computes switch settings realizing the arbitrary permutation `d` on
/// `B(n)` — the paper's baseline `O(N log N)` set-up.
///
/// The returned settings route input `i` to output `d[i]` via
/// [`crate::network::Benes::route_with`]. They are [`setup_program`]'s
/// column masks read back per switch, and bit-identical to
/// [`reference_setup`]'s.
///
/// # Errors
///
/// Returns an error if the length is not a power of two or exceeds the
/// supported maximum. Lengths of 1 (`n = 0`) are rejected as well: the
/// smallest Benes network is `B(1)`.
pub fn setup(d: &Permutation) -> Result<SwitchSettings, SetupError> {
    setup_program(d).map(|program| program.to_settings())
}

/// Computes the word kernel's column masks realizing the arbitrary
/// permutation `d` on `B(n)`: the looping set-up run level by level in
/// flattened coordinates (see the module docs), writing each switch's
/// bit straight into its column.
///
/// The program is the one [`setup`] converts to per-switch settings, and
/// [`MaskProgram::from_settings`] of [`reference_setup`]'s settings.
///
/// # Errors
///
/// As [`setup`]: the length must be a power of two `2^n` with
/// `1 ≤ n ≤ MAX_N`.
///
/// # Examples
///
/// ```
/// use benes_core::word::{self, Columns};
/// use benes_core::waksman;
/// use benes_perm::Permutation;
///
/// let d = Permutation::from_destinations(vec![2, 5, 3, 7, 1, 6, 4, 0]).unwrap();
/// let program = waksman::setup_program(&d)?;
/// assert!(word::route(3, &d, Columns::Given(&program), None).unwrap().is_success());
/// # Ok::<(), waksman::SetupError>(())
/// ```
pub fn setup_program(d: &Permutation) -> Result<MaskProgram, SetupError> {
    let n = order(d)?;
    let size = 1usize << n;
    let last = topology::stage_count(n) - 1;
    let mut program = MaskProgram::all_straight(n);
    // dest[p]: the flattened position the element now at position p must
    // reach on leaving its level-k sub-network; `next` is the same after
    // level k, with u32::MAX marking a pair no loop has reached yet.
    let mut dest: Vec<u32> = d.destinations().to_vec();
    let mut next = vec![0u32; size];
    let mut inv = vec![0u32; size];
    for k in 0..n {
        let b = 1usize << k;
        for (p, &o) in dest.iter().enumerate() {
            inv[o as usize] = p as u32; // analyze:allow(truncating-cast): p < 2^MAX_N terminals
        }
        next.fill(u32::MAX);
        let upper = (0..size).step_by(2 * b).flat_map(|base| base..base + b);
        for seed in upper {
            if next[seed] != u32::MAX {
                continue;
            }
            // A new constraint loop, seeded through the upper sub-network.
            // Every x it reaches goes up (its partner down); the input xp
            // feeding the partner of x's output goes down (its partner,
            // the next x, up), until xp is the seed's own partner.
            let mut x = seed;
            loop {
                let o = dest[x] as usize;
                // Input stage k crosses where x is a lower input; output
                // stage 2n−2−k, where x's output is a lower one.
                program.cross_if(k as usize, x & !b, x & b != 0);
                program.cross_if(last - k as usize, o & !b, o & b != 0);
                let xp = inv[o ^ b] as usize;
                // Bit k of both position and target now names the side.
                next[x & !b] = (o & !b) as u32; // analyze:allow(truncating-cast): o < 2^MAX_N
                next[xp | b] = (o | b) as u32; // analyze:allow(truncating-cast): o < 2^MAX_N
                if xp == seed ^ b {
                    break;
                }
                x = xp ^ b;
            }
        }
        std::mem::swap(&mut dest, &mut next);
    }
    Ok(program)
}

/// The recursive looping set-up: one sub-problem per sub-network, five
/// vectors per call, settings written per switch. Kept as the oracle
/// [`setup_program`] is tested against; [`setup`] is bit-identical to it.
///
/// # Errors
///
/// As [`setup`].
pub fn reference_setup(d: &Permutation) -> Result<SwitchSettings, SetupError> {
    let n = order(d)?;
    let mut settings = SwitchSettings::all_straight(n);
    setup_recursive(d.destinations(), n, 0, 0, &mut settings);
    Ok(settings)
}

/// The order `n` of the `B(n)` that serves `d`.
fn order(d: &Permutation) -> Result<u32, SetupError> {
    let n = d
        .log2_len()
        .filter(|&n| n >= 1)
        .ok_or(SetupError::NotPowerOfTwo { len: d.len() })?;
    if n > topology::MAX_N {
        return Err(SetupError::TooLarge { n });
    }
    Ok(n)
}

/// Sets the switches of the `B(m)` sub-network whose first stage is
/// `stage_base` and whose switch rows start at `row_base`, so that it
/// realizes `perm` (a permutation of `0..2^m`). Shared with the
/// fault-avoiding set-up of [`crate::faults`], which uses it for
/// fault-free sub-blocks.
pub(crate) fn setup_recursive(
    perm: &[u32],
    m: u32,
    stage_base: usize,
    row_base: usize,
    settings: &mut SwitchSettings,
) {
    let len = perm.len();
    debug_assert_eq!(len, 1 << m);
    if m == 1 {
        let state = if perm[0] == 0 { SwitchState::Straight } else { SwitchState::Cross };
        settings.set(stage_base, row_base, state);
        return;
    }

    // inverse permutation: which input feeds each output.
    let mut inv = vec![0u32; len];
    for (i, &o) in perm.iter().enumerate() {
        inv[o as usize] = i as u32; // analyze:allow(truncating-cast): i < 2^MAX_N terminals
    }

    // side assignment: 0 = upper subnetwork, 1 = lower.
    let mut in_side: Vec<Option<u8>> = vec![None; len];
    let mut out_side: Vec<Option<u8>> = vec![None; len];

    for seed in 0..len {
        if in_side[seed].is_some() {
            continue;
        }
        // Seed a new constraint loop: send this input through the upper
        // subnetwork, then alternate around the loop until it closes.
        let mut x = seed;
        in_side[x] = Some(0);
        loop {
            // Input x's side forces its output's side…
            let o = perm[x] as usize;
            out_side[o] = in_side[x];
            // …which forces the partner output to the other side…
            let op = o ^ 1;
            let other = 1 - out_side[o].expect("just assigned");
            if out_side[op].is_some() {
                debug_assert_eq!(out_side[op], Some(other), "loop inconsistency");
                break;
            }
            out_side[op] = Some(other);
            // …which forces the input feeding it…
            let xp = inv[op] as usize;
            in_side[xp] = Some(other);
            // …which forces the partner input to the other side.
            let xq = xp ^ 1;
            let next = 1 - other;
            if in_side[xq].is_some() {
                debug_assert_eq!(in_side[xq], Some(next), "loop inconsistency");
                break;
            }
            in_side[xq] = Some(next);
            x = xq;
        }
    }

    let half = len / 2;
    let stages = 2 * m as usize - 1;

    // Outer stages + induced sub-permutations.
    let mut upper = vec![0u32; half];
    let mut lower = vec![0u32; half];
    for i in 0..half {
        // First stage: straight iff the upper input (2i) goes up.
        let up_in = if in_side[2 * i] == Some(0) { 2 * i } else { 2 * i + 1 };
        let state = if up_in == 2 * i { SwitchState::Straight } else { SwitchState::Cross };
        settings.set(stage_base, row_base + i, state);
        upper[i] = perm[up_in] >> 1;
        lower[i] = perm[up_in ^ 1] >> 1;

        // Last stage: straight iff output 2i is fed by the upper
        // subnetwork.
        let state = if out_side[2 * i] == Some(0) {
            SwitchState::Straight
        } else {
            SwitchState::Cross
        };
        settings.set(stage_base + stages - 1, row_base + i, state);
    }

    setup_recursive(&upper, m - 1, stage_base + 1, row_base, settings);
    setup_recursive(&lower, m - 1, stage_base + 1, row_base + half / 2, settings);
}

/// The switches Waksman's *reduced* network `A(n)` removes: switch 0 of
/// the **first** stage of every recursive block can be fixed straight
/// without losing rearrangeability, because each constraint loop can be
/// seeded with its block-0 input sent to the upper subnetwork.
///
/// Returns `(stage, row)` pairs, `N/2 − 1` of them; removing them leaves
/// `N·log N − N + 1` switches — Waksman's optimal count.
///
/// [`setup`] is *compatible with the reduction by construction*: it seeds
/// every loop from the smallest unassigned input with side 0, so the
/// returned settings always leave these switches straight (tested
/// exhaustively).
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn reduced_fixed_switches(n: u32) -> Vec<(usize, usize)> {
    topology::validate_n(n);
    let mut fixed = Vec::new();
    collect_fixed(n, 0, 0, &mut fixed);
    fixed
}

fn collect_fixed(
    m: u32,
    stage_base: usize,
    row_base: usize,
    out: &mut Vec<(usize, usize)>,
) {
    if m == 1 {
        return; // the single switch of B(1) is essential
    }
    out.push((stage_base, row_base));
    let half_rows = 1usize << (m - 2);
    collect_fixed(m - 1, stage_base + 1, row_base, out);
    collect_fixed(m - 1, stage_base + 1, row_base + half_rows, out);
}

/// The switch count of Waksman's reduced network `A(n)`:
/// `N·log N − N + 1`.
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn reduced_switch_count(n: u32) -> usize {
    topology::switch_count(n) - reduced_fixed_switches(n).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Benes;

    #[test]
    fn reduced_fixed_switch_count_is_half_n_minus_1() {
        for n in 1..10u32 {
            let nn = 1usize << n;
            assert_eq!(reduced_fixed_switches(n).len(), nn / 2 - 1, "n = {n}");
            // Waksman's bound: N·log N − N + 1 switches suffice.
            assert_eq!(reduced_switch_count(n), nn * n as usize - nn + 1);
        }
    }

    #[test]
    fn fixed_switches_are_distinct_and_in_range() {
        let n = 5;
        let fixed = reduced_fixed_switches(n);
        let mut seen = std::collections::HashSet::new();
        for &(stage, row) in &fixed {
            assert!(stage < topology::stage_count(n));
            assert!(row < topology::switches_per_stage(n));
            // Only first-half stages host fixed switches (each block's
            // FIRST stage).
            assert!(stage < topology::stage_count(n) / 2 + 1);
            assert!(seen.insert((stage, row)), "duplicate fixed switch");
        }
    }

    #[test]
    fn setup_never_crosses_fixed_switches_exhaustive() {
        // The reduction is realized by this implementation for every
        // permutation of 8 elements: the returned settings are a valid
        // configuration of Waksman's A(3).
        let fixed = reduced_fixed_switches(3);
        for d in all_perms(8) {
            let settings = setup(&d).unwrap();
            for &(stage, row) in &fixed {
                assert_eq!(
                    settings.get(stage, row),
                    SwitchState::Straight,
                    "D = {d}: fixed switch ({stage},{row}) crossed"
                );
            }
        }
    }

    #[test]
    fn setup_never_crosses_fixed_switches_large_random_style() {
        let n = 7;
        let fixed = reduced_fixed_switches(n);
        let len = 1usize << n;
        let mut state = 99u64;
        for _ in 0..25 {
            let mut dest: Vec<u32> = (0..len as u32).collect();
            for i in (1..len).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (state >> 33) as usize % (i + 1);
                dest.swap(i, j);
            }
            let d = Permutation::from_destinations(dest).unwrap();
            let settings = setup(&d).unwrap();
            for &(stage, row) in &fixed {
                assert_eq!(settings.get(stage, row), SwitchState::Straight);
            }
        }
    }

    fn assert_realizes(net: &Benes, d: &Permutation) {
        let settings = setup(d).expect("setup succeeds");
        // Route the terminal indices; output D_i must hold input i,
        // i.e. output o holds inv[o].
        let data: Vec<u32> = (0..net.terminal_count() as u32).collect();
        let out = net.route_with(&settings, &data).unwrap();
        for (i, &dest) in d.destinations().iter().enumerate() {
            assert_eq!(out[dest as usize], i as u32, "input {i} missed output {dest}");
        }
    }

    #[test]
    fn realizes_all_permutations_n2_exhaustively() {
        let net = Benes::new(2);
        for d in all_perms(4) {
            assert_realizes(&net, &d);
        }
    }

    #[test]
    fn realizes_all_permutations_n3_exhaustively() {
        let net = Benes::new(3);
        for d in all_perms(8) {
            assert_realizes(&net, &d);
        }
    }

    #[test]
    fn realizes_structured_permutations_large() {
        use benes_perm::bpc::Bpc;
        use benes_perm::omega::cyclic_shift;
        for n in [4u32, 6, 8] {
            let net = Benes::new(n);
            assert_realizes(&net, &Bpc::bit_reversal(n).to_permutation());
            assert_realizes(&net, &Bpc::vector_reversal(n).to_permutation());
            assert_realizes(&net, &cyclic_shift(n, 3));
            assert_realizes(&net, &Permutation::identity(1 << n));
        }
    }

    #[test]
    fn realizes_worst_case_style_permutation() {
        // A permutation engineered to be far from F: reverse pairs within
        // a bit-reversal composed with a shift.
        let n = 5;
        let net = Benes::new(n);
        let d = benes_perm::bpc::Bpc::bit_reversal(n)
            .to_permutation()
            .then(&benes_perm::omega::cyclic_shift(n, 11));
        assert_realizes(&net, &d);
    }

    #[test]
    fn identity_setup_is_all_straight_equivalent() {
        // The identity must route correctly (states need not all be
        // straight — loop seeding may cross pairs of switches — but the
        // realized mapping must be the identity).
        let net = Benes::new(3);
        let id = Permutation::identity(8);
        let settings = setup(&id).unwrap();
        let data: Vec<u32> = (0..8).collect();
        assert_eq!(net.route_with(&settings, &data).unwrap(), data);
    }

    #[test]
    fn setup_program_matches_reference_exhaustive() {
        // Every input of B(2) and B(3): the flattened single-pass set-up
        // and the recursive reference choose the same switch states.
        for len in [4, 8] {
            for d in all_perms(len) {
                let reference = reference_setup(&d).unwrap();
                let program = setup_program(&d).unwrap();
                assert_eq!(program.to_settings(), reference, "D = {d}");
                assert_eq!(program, MaskProgram::from_settings(&reference), "D = {d}");
                assert_eq!(setup(&d).unwrap(), reference, "D = {d}");
            }
        }
    }

    #[test]
    fn rejects_bad_lengths() {
        // All three entry points share one length check.
        for len in [1, 3, 6, 12] {
            let d = Permutation::identity(len);
            let err = Some(SetupError::NotPowerOfTwo { len });
            assert_eq!(setup(&d).err(), err);
            assert_eq!(setup_program(&d).err(), err);
            assert_eq!(reference_setup(&d).err(), err);
        }
    }

    #[test]
    fn setup_handles_permutations_outside_f() {
        // The whole point of external set-up: Fig. 5's permutation.
        let net = Benes::new(2);
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        assert!(!net.self_route(&d).is_success());
        assert_realizes(&net, &d);
    }

    fn all_perms(len: u32) -> Vec<Permutation> {
        fn rec(rem: &mut Vec<u32>, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if rem.is_empty() {
                out.push(cur.clone());
                return;
            }
            for idx in 0..rem.len() {
                let v = rem.remove(idx);
                cur.push(v);
                rec(rem, cur, out);
                cur.pop();
                rem.insert(idx, v);
            }
        }
        let mut out = Vec::new();
        rec(&mut (0..len).collect(), &mut Vec::new(), &mut out);
        out.into_iter().map(|d| Permutation::from_destinations(d).unwrap()).collect()
    }
}
