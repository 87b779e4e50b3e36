//! Experiment EXP-WORD: scalar vs word-parallel routing kernels.
//!
//! Routes the same seeded stream of `F(n)` members through both forms
//! of the self-routing kernel — the scalar per-tag oracle
//! (`Benes::self_route`) and the bitmask-word kernel
//! (`Benes::self_route_fast`), which advances whole switch columns as
//! `u64` masks — and reports single-thread routes/s and the speed-up.
//! The omega-bit kernel pair is measured the same way. A third pair
//! times the replay of an external (Waksman) set-up: the scalar
//! `Benes::realized_permutation` walk against the word kernel with the
//! set-up given as a column-mask program (`word::route` with
//! `Columns::Given`), over a stream of arbitrary permutations. Every
//! word outcome is checked against the scalar oracle's verdict before
//! timing, so the numbers can't come from a kernel that routes wrong.
//!
//! Usage: `word_kernel [--perms N] [--assert-speedup FACTOR]`
//!
//! `--assert-speedup` fails the process unless, at `n = 8` (the engine
//! benchmark's largest order), both the word self-route and the word
//! settings replay beat their scalar counterparts by the given factor.

use benes_bench::{random_f_member, Table};
use benes_core::word::{self, Columns, MaskProgram};
use benes_core::{waksman, Benes};
use benes_perm::Permutation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn parse_args() -> (usize, Option<f64>) {
    let mut perms = 2000usize;
    let mut assert_speedup = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--perms" => {
                let v = args.next().expect("--perms needs a value");
                perms = v.parse().expect("--perms must be a positive integer");
                assert!(perms > 0, "--perms must be a positive integer");
            }
            "--assert-speedup" => {
                let v = args.next().expect("--assert-speedup needs a factor");
                let f: f64 = v.parse().expect("--assert-speedup must be a number");
                assert!(f > 0.0, "--assert-speedup factor must be positive");
                assert_speedup = Some(f);
            }
            other => {
                panic!("unknown argument `{other}` (try --perms N / --assert-speedup F)")
            }
        }
    }
    (perms, assert_speedup)
}

/// Times `route` over the whole stream, returning (seconds, successes).
fn time_over(
    stream: &[Permutation],
    mut route: impl FnMut(&Permutation) -> bool,
) -> (f64, usize) {
    let start = Instant::now();
    let ok = stream.iter().filter(|d| route(d)).count();
    (start.elapsed().as_secs_f64(), ok)
}

fn main() {
    let (perms, assert_speedup) = parse_args();
    println!("== EXP-WORD: scalar vs word-parallel kernel throughput ==\n");

    let mut rng = StdRng::seed_from_u64(0x30bd);
    let mut table = Table::new(vec![
        "n",
        "N",
        "perms",
        "scalar routes/s",
        "word routes/s",
        "speed-up",
        "omega scalar/s",
        "omega word/s",
        "omega speed-up",
        "replay scalar/s",
        "replay word/s",
        "replay speed-up",
    ]);

    let grid = [4u32, 6, 8, 10];
    let mut speedup_at_8 = 0.0f64;
    let mut replay_speedup_at_8 = 0.0f64;
    for n in grid {
        let net = Benes::new(n);
        let stream: Vec<Permutation> =
            (0..perms).map(|_| random_f_member(&mut rng, n)).collect();

        // Cross-check first (untimed): the word kernel must agree with
        // the scalar oracle on every permutation in the stream.
        for d in &stream {
            assert_eq!(
                net.self_route_fast(d).unwrap().is_success(),
                net.self_route(d).is_success(),
                "word/scalar disagreement at n = {n}"
            );
        }

        let (scalar_s, scalar_ok) = time_over(&stream, |d| net.self_route(d).is_success());
        let (word_s, word_ok) =
            time_over(&stream, |d| net.self_route_fast(d).unwrap().is_success());
        assert_eq!(scalar_ok, word_ok);
        let (oscalar_s, _) = time_over(&stream, |d| net.self_route_omega(d).is_success());
        let (oword_s, _) =
            time_over(&stream, |d| net.self_route_omega_fast(d).unwrap().is_success());

        // Settings replay: Waksman set-ups of arbitrary permutations,
        // paid untimed, then replayed by both executors. Own seed stream,
        // so the self-route rows keep their inputs.
        let mut replay_rng = StdRng::seed_from_u64(0x5e77 ^ u64::from(n));
        let replays: Vec<(Permutation, _, MaskProgram)> = (0..perms)
            .map(|_| {
                let d = benes_bench::random_permutation(&mut replay_rng, 1 << n);
                let program = waksman::setup_program(&d).expect("order in range");
                (d, program.to_settings(), program)
            })
            .collect();
        let word_replay = |d: &Permutation, program: &MaskProgram| {
            word::route(n, d, Columns::Given(program), None).unwrap().is_success()
        };
        for (d, settings, program) in &replays {
            assert!(net.realized_permutation(settings).unwrap() == *d);
            assert!(word_replay(d, program), "word replay disagrees at n = {n}");
        }
        let start = Instant::now();
        let rscalar_ok = replays
            .iter()
            .filter(|(d, settings, _)| net.realized_permutation(settings).unwrap() == *d)
            .count();
        let rscalar_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let rword_ok =
            replays.iter().filter(|(d, _, program)| word_replay(d, program)).count();
        let rword_s = start.elapsed().as_secs_f64();
        assert_eq!(rscalar_ok, rword_ok);

        let speedup = scalar_s / word_s;
        let replay_speedup = rscalar_s / rword_s;
        if n == 8 {
            speedup_at_8 = speedup;
            replay_speedup_at_8 = replay_speedup;
        }
        table.row(vec![
            n.to_string(),
            (1u64 << n).to_string(),
            perms.to_string(),
            format!("{:.0}", perms as f64 / scalar_s),
            format!("{:.0}", perms as f64 / word_s),
            format!("{speedup:.1}x"),
            format!("{:.0}", perms as f64 / oscalar_s),
            format!("{:.0}", perms as f64 / oword_s),
            format!("{:.1}x", oscalar_s / oword_s),
            format!("{:.0}", perms as f64 / rscalar_s),
            format!("{:.0}", perms as f64 / rword_s),
            format!("{replay_speedup:.1}x"),
        ]);
    }
    println!("{}", table.render());
    println!(
        "observation: the word kernel advances a whole switch column per mask\n\
         operation (delta-swaps below word width, word-pair swaps above), so its\n\
         advantage grows with N — the scalar kernel touches every tag at every\n\
         stage, the word kernel touches N/64 words per bit-plane. A settings\n\
         replay is the same column loop with the masks given instead of read\n\
         from a tag plane."
    );

    if let Some(factor) = assert_speedup {
        assert!(
            speedup_at_8 >= factor,
            "word-kernel speed-up regressed at n = 8: {speedup_at_8:.1}x < \
             required {factor:.1}x"
        );
        assert!(
            replay_speedup_at_8 >= factor,
            "settings-replay speed-up regressed at n = 8: {replay_speedup_at_8:.1}x < \
             required {factor:.1}x"
        );
        println!(
            "\nspeed-up check at n = 8: self-route {speedup_at_8:.1}x, settings replay \
             {replay_speedup_at_8:.1}x (required >= {factor:.1}x)"
        );
    }
}
