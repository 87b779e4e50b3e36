//! The static structure of the Benes network `B(n)` (Fig. 1 of the paper).
//!
//! `B(n)` consists of a stage of `N/2` binary switches, followed by two
//! copies of `B(n−1)` (the *upper* and *lower* subnetworks), followed by
//! another stage of `N/2` switches; `B(1)` is a single switch. Flattening
//! the recursion gives `2n − 1` stages of `N/2` switches each, for
//! `N·log N − N/2` switches in total.
//!
//! This module computes the flattened representation honestly from the
//! recursion:
//!
//! * [`build_links`] — for each of the `2n − 2` inter-stage gaps, the
//!   wiring permutation taking an output port of one stage to an input
//!   port of the next;
//! * [`control_bit`] — the destination-tag bit examined by the switches of
//!   each stage under the paper's self-routing rule (stage `b` and stage
//!   `2n−2−b` both use bit `b`, Fig. 3);
//! * the closed-form size accessors ([`stage_count`], [`switch_count`]);
//! * [`flat_upper`] — the per-order position table mapping each switch to
//!   its bit in a word-kernel column mask.
//!
//! Port numbering: in every stage, switch `i` owns input ports `2i`
//! (upper) and `2i+1` (lower), and output ports `2i` and `2i+1` likewise.
//! Terminal `i` of the network is input port `i` of stage 0 and output
//! port `i` of the last stage.

use std::sync::OnceLock;

/// Maximum supported `n`. `B(20)` already has one million terminals and
/// ~20 M switches; larger networks exhaust memory long before correctness
/// is at risk, so the bound is practical rather than fundamental.
pub const MAX_N: u32 = 24;

/// Validates `n` for network construction.
///
/// # Panics
///
/// Panics if `n == 0` or `n > MAX_N` — the paper defines `B(n)` for
/// `n ≥ 1`.
pub(crate) fn validate_n(n: u32) {
    assert!(n >= 1, "B(n) requires n >= 1 (B(1) is a single switch)");
    assert!(n <= MAX_N, "n = {n} exceeds the supported maximum {MAX_N}");
}

/// The number of terminals `N = 2^n`.
///
/// # Panics
///
/// Panics if `n` is out of range (see [`MAX_N`]).
#[must_use]
pub fn terminal_count(n: u32) -> usize {
    validate_n(n);
    1usize << n
}

/// The number of switch stages, `2n − 1`.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::stage_count;
/// assert_eq!(stage_count(1), 1);
/// assert_eq!(stage_count(3), 5);
/// ```
#[must_use]
pub fn stage_count(n: u32) -> usize {
    validate_n(n);
    2 * n as usize - 1
}

/// The number of switches per stage, `N/2`.
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn switches_per_stage(n: u32) -> usize {
    terminal_count(n) / 2
}

/// The total number of binary switches, `N·log N − N/2`.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::switch_count;
/// assert_eq!(switch_count(3), 8 * 3 - 4); // 20 switches in B(3)
/// ```
#[must_use]
pub fn switch_count(n: u32) -> usize {
    stage_count(n) * switches_per_stage(n)
}

/// The destination-tag bit examined by the switches of `stage` in `B(n)`
/// under the self-routing rule of Fig. 3: stage `b` and stage `2n−2−b`
/// both use bit `b`, so `control_bit = min(stage, 2n−2−stage)`.
///
/// # Panics
///
/// Panics if `n` is out of range or `stage >= 2n−1`.
///
/// # Examples
///
/// ```
/// use benes_core::topology::control_bit;
/// // B(3): stages 0,1,2,3,4 use bits 0,1,2,1,0.
/// assert_eq!((0..5).map(|s| control_bit(3, s)).collect::<Vec<_>>(),
///            vec![0, 1, 2, 1, 0]);
/// ```
#[must_use]
pub fn control_bit(n: u32, stage: usize) -> u32 {
    validate_n(n);
    let stages = stage_count(n);
    assert!(stage < stages, "stage {stage} out of range (B({n}) has {stages} stages)");
    (stage.min(stages - 1 - stage)) as u32 // analyze:allow(truncating-cast): stage < 2n−1 ≤ 47
}

/// Builds the inter-stage wiring of `B(n)` by the recursion of Fig. 1.
///
/// The result has `2n − 2` entries; entry `s` maps each output port `p` of
/// stage `s` to the input port `links[s][p]` of stage `s + 1`. Each entry
/// is a permutation of `0..N`.
///
/// The recursion: the first link sends stage-0 switch `i`'s upper output
/// to input `i` of the upper `B(n−1)` copy and its lower output to input
/// `i` of the lower copy; the two copies sit block-diagonally in the
/// middle stages (upper copy on ports `0..N/2`); the last link brings
/// output `j` of the upper copy to the upper input of final-stage switch
/// `j` and output `j` of the lower copy to its lower input.
///
/// # Panics
///
/// Panics if `n` is out of range.
///
/// # Examples
///
/// ```
/// use benes_core::topology::build_links;
/// // B(2): both links interleave the halves.
/// assert_eq!(build_links(2), vec![vec![0, 2, 1, 3], vec![0, 2, 1, 3]]);
/// ```
#[must_use]
pub fn build_links(n: u32) -> Vec<Vec<u32>> {
    validate_n(n);
    if n == 1 {
        return Vec::new();
    }
    let nn = terminal_count(n);
    let half = (nn / 2) as u32; // analyze:allow(truncating-cast): nn = 2^n ≤ 2^MAX_N

    // First link: stage-0 output port 2i → upper-copy input i (port i);
    // port 2i+1 → lower-copy input i (port half + i).
    let mut first = vec![0u32; nn];
    for i in 0..half {
        first[(2 * i) as usize] = i;
        first[(2 * i + 1) as usize] = half + i;
    }

    // Middle links: block-diagonal composition of the two B(n−1) copies.
    let sub = build_links(n - 1);
    let mut links = Vec::with_capacity(2 * n as usize - 2);
    links.push(first);
    for sub_link in &sub {
        let mut combined = vec![0u32; nn];
        for (p, &q) in sub_link.iter().enumerate() {
            combined[p] = q; // upper copy: ports 0..N/2
            combined[p + half as usize] = q + half; // lower copy
        }
        links.push(combined);
    }

    // Last link: upper-copy output j (port j) → final-stage port 2j;
    // lower-copy output j (port half + j) → final-stage port 2j+1.
    let mut last = vec![0u32; nn];
    for j in 0..half {
        last[j as usize] = 2 * j;
        last[(half + j) as usize] = 2 * j + 1;
    }
    links.push(last);
    links
}

/// The per-order position table of `B(n)`: entry `s·N/2 + i` is the
/// flattened coordinate (see [`crate::word`]) of the upper input of
/// switch `i` in stage `s`, i.e. the bit a column mask uses for that
/// switch.
///
/// Built once per order per process by walking [`build_links`], so
/// converting switch assignments to and from column masks never repeats
/// the link walk.
///
/// # Panics
///
/// Panics if `n` is out of range.
#[must_use]
pub fn flat_upper(n: u32) -> &'static [u32] {
    static TABLES: [OnceLock<Box<[u32]>>; MAX_N as usize + 1] =
        [const { OnceLock::new() }; MAX_N as usize + 1];
    validate_n(n);
    TABLES[n as usize].get_or_init(|| {
        let size = terminal_count(n);
        let links = build_links(n);
        let mut table = Vec::with_capacity(switch_count(n));
        // p2f[q] = flattened coordinate at physical port q: the identity
        // at stage 0, carried forward by each link.
        // analyze:allow(truncating-cast): size = 2^n ≤ 2^MAX_N
        let mut p2f: Vec<u32> = (0..size as u32).collect();
        for s in 0..stage_count(n) {
            table.extend(p2f.iter().step_by(2));
            if let Some(link) = links.get(s) {
                let mut next = vec![0u32; size];
                for (&f, &q) in p2f.iter().zip(link) {
                    next[q as usize] = f;
                }
                p2f = next;
            }
        }
        table.into_boxed_slice()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_formulas() {
        for n in 1..10u32 {
            let nn = 1usize << n;
            assert_eq!(terminal_count(n), nn);
            assert_eq!(stage_count(n), 2 * n as usize - 1);
            assert_eq!(switches_per_stage(n), nn / 2);
            // Paper: N·log N − N/2 switches.
            assert_eq!(switch_count(n), nn * n as usize - nn / 2);
        }
    }

    #[test]
    fn b1_has_no_links() {
        assert!(build_links(1).is_empty());
        assert_eq!(stage_count(1), 1);
        assert_eq!(switch_count(1), 1);
    }

    #[test]
    fn link_count_is_stages_minus_one() {
        for n in 1..8u32 {
            assert_eq!(build_links(n).len(), stage_count(n) - 1);
        }
    }

    #[test]
    fn links_are_permutations() {
        for n in 1..8u32 {
            let nn = terminal_count(n);
            for (s, link) in build_links(n).iter().enumerate() {
                assert_eq!(link.len(), nn);
                let mut seen = vec![false; nn];
                for &q in link {
                    assert!(!seen[q as usize], "n={n}, link {s}: duplicate port {q}");
                    seen[q as usize] = true;
                }
            }
        }
    }

    #[test]
    fn b2_links_interleave() {
        assert_eq!(build_links(2), vec![vec![0, 2, 1, 3], vec![0, 2, 1, 3]]);
    }

    #[test]
    fn b3_first_link_splits_into_halves() {
        let links = build_links(3);
        assert_eq!(links.len(), 4);
        // Upper outputs of stage 0 go to ports 0..4 (upper copy),
        // lower outputs to ports 4..8.
        assert_eq!(links[0], vec![0, 4, 1, 5, 2, 6, 3, 7]);
        // Last link mirrors the first.
        assert_eq!(links[3], vec![0, 2, 4, 6, 1, 3, 5, 7]);
    }

    #[test]
    fn middle_links_are_block_diagonal() {
        let links = build_links(3);
        // Links 1 and 2 embed two copies of B(2)'s single link pattern
        // [0,2,1,3] in each half.
        let expected = vec![0, 2, 1, 3, 4, 6, 5, 7];
        assert_eq!(links[1], expected);
        assert_eq!(links[2], expected);
    }

    #[test]
    fn control_bits_are_symmetric() {
        for n in 1..10u32 {
            let stages = stage_count(n);
            for s in 0..stages {
                assert_eq!(control_bit(n, s), control_bit(n, stages - 1 - s));
            }
            // Middle stage uses the highest bit.
            assert_eq!(control_bit(n, stages / 2), n - 1);
            // Outer stages use bit 0.
            assert_eq!(control_bit(n, 0), 0);
            assert_eq!(control_bit(n, stages - 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn rejects_n_zero() {
        let _ = stage_count(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_stage_out_of_range() {
        let _ = control_bit(2, 3);
    }
}
