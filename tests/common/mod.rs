//! The seeded-case schedule the differential and equivalence suites share.
//!
//! The vendored proptest crate has no failure persistence, so these suites
//! roll their own: every case is derived from a printable 16-hex-digit
//! seed, failures panic with that seed, and
//! `tests/regressions/<suite>.txt` holds previously failing seeds
//! (`cc <seed> # note` lines) that are replayed *first* on every run.

/// Fresh cases per property, after the regression seeds.
const CASES: usize = 500;

/// splitmix64: the per-case parameter stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Case seed `i` of a property's deterministic 500-seed schedule.
fn case_seed(property: u64, i: usize) -> u64 {
    let mut s = property
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(i as u64);
    splitmix(&mut s)
}

/// Previously failing seeds of `tests/regressions/<stem>.txt`, replayed
/// before the fresh schedule. Line format: `cc 0123456789abcdef # what broke`.
fn regression_seeds(stem: &str) -> Vec<u64> {
    let path = format!(
        "{}/tests/regressions/{stem}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("regression seed file {path} unreadable: {e}"));
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("cc ") else {
            continue;
        };
        let hex = rest.split_whitespace().next().unwrap_or("");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|e| panic!("bad regression seed {hex:?} in {path}: {e}"));
        seeds.push(seed);
    }
    assert!(
        !seeds.is_empty(),
        "no `cc <seed>` entries in {path} — the regression net is gone"
    );
    seeds
}

/// All seeds a property runs: the regressions in
/// `tests/regressions/<stem>.txt` first, then the schedule.
pub fn schedule(stem: &str, property: u64) -> Vec<u64> {
    let mut seeds = regression_seeds(stem);
    seeds.extend((0..CASES).map(|i| case_seed(property, i)));
    seeds
}
