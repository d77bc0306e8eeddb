//! Correctness of a pass: sanitizer verdicts and delivery counts come with
//! each [`Outcome`]; this module adds the modelled-statistics digests and
//! their comparison against the references stored with the benchmark.

use crate::cells::{Outcome, Workload};

/// References recorded for the default seeds: one line per workload and
/// seed, `<workload> <seed> <digest per cell, in pass order>`, digests as
/// 16-digit hex. Plain lines keep the lookup, which every set-up repeats,
/// down to a scan.
pub const REFERENCES: &str = include_str!("../refs.txt");

/// Default seeds whose digests are stored in [`REFERENCES`].
pub const REFERENCE_SEEDS: std::ops::Range<u64> = 0..32;

/// FNV-1a over the given byte strings, each followed by a separator so
/// that field boundaries count.
pub fn digest(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The stored digests of `workload` at `seed`, if that seed is recorded.
pub fn reference(refs: &str, workload: Workload, seed: u64) -> Option<Vec<u64>> {
    let seed = seed.to_string();
    refs.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(workload.name()) || fields.next() != Some(seed.as_str()) {
            return None;
        }
        Some(
            fields
                .map(|d| u64::from_str_radix(d, 16).expect("refs.txt digests are hex"))
                .collect(),
        )
    })
}

/// Render recorded digests in the [`REFERENCES`] layout.
pub fn render_references(recorded: &[(Workload, u64, Vec<u64>)]) -> String {
    let mut out = String::from(
        "# perfbench reference digests: <workload> <seed> <digest per cell, in pass order>\n",
    );
    for (workload, seed, digests) in recorded {
        out.push_str(&format!("{} {seed}", workload.name()));
        for d in digests {
            out.push_str(&format!(" {d:016x}"));
        }
        out.push('\n');
    }
    out
}

/// Append every failed check of one pass's outcome to its violations.
///
/// `reference` holds the stored digests when the seed is recorded;
/// `first_pass` holds this run's first pass, which every later pass (and
/// every traced pass) must reproduce exactly, event counts included.
pub fn check_pass(
    outcomes: &mut [Outcome],
    reference: Option<&[u64]>,
    first_pass: Option<&[Outcome]>,
) {
    if let Some(want) = reference {
        let cells = outcomes.len();
        if want.len() != cells {
            for o in outcomes.iter_mut() {
                o.violations.push(format!(
                    "reference lists {} cells, the pass has {cells}",
                    want.len()
                ));
            }
        } else {
            for (o, &d) in outcomes.iter_mut().zip(want) {
                if o.digest != d {
                    o.violations.push(format!(
                        "modelled statistics digest {:016x} differs from reference {d:016x}",
                        o.digest
                    ));
                }
            }
        }
    }
    if let Some(first) = first_pass {
        for (o, f) in outcomes.iter_mut().zip(first) {
            if (o.digest, o.events, o.frames) != (f.digest, f.events, f.frames) {
                o.violations.push(format!(
                    "not deterministic: digest/events/frames {:016x}/{}/{} vs first pass {:016x}/{}/{}",
                    o.digest, o.events, o.frames, f.digest, f.events, f.frames
                ));
            }
        }
    }
}
