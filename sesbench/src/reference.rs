//! Per-seed reference solves: the Ω bits and assignment digest of the
//! tenant solve for each (workload, tenant seed) recorded in
//! `reference.tsv`. The table covers every tenant seed
//! (`0..universe::TENANT_SEEDS`); a run whose tenant seed is missing fails
//! its reference check.

const TABLE: &str = include_str!("../reference.tsv");

/// The recorded `(Ω bits, assignment digest)` for a workload and seed.
pub fn lookup(workload: &str, seed: u64) -> Option<(u64, u64)> {
    TABLE.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, omega, digest) = (f.next()?, f.next()?, f.next()?, f.next()?);
        if w != workload || s.parse::<u64>().ok()? != seed {
            return None;
        }
        Some((
            u64::from_str_radix(omega, 16).ok()?,
            u64::from_str_radix(digest, 16).ok()?,
        ))
    })
}

/// One table line.
pub fn line(workload: &str, seed: u64, omega_bits: u64, digest: u64) -> String {
    format!("{workload}\t{seed}\t{omega_bits:016x}\t{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip_through_the_parser() {
        let l = line("solve-dense", 3, 0x40dd_1234_5678_9abc, 0xfeed);
        let mut f = l.split_whitespace();
        assert_eq!(f.next(), Some("solve-dense"));
        assert_eq!(f.nth(2), Some("000000000000feed"));
    }

    #[test]
    fn the_table_covers_every_tenant_seed_of_every_workload() {
        let recorded: std::collections::HashSet<(&str, u64)> = TABLE
            .lines()
            .map(|l| {
                let mut f = l.split_whitespace();
                let w = f.next().expect("workload");
                (w, f.next().and_then(|s| s.parse().ok()).expect("seed"))
            })
            .collect();
        for w in crate::universe::WORKLOADS {
            for seed in 0..crate::universe::TENANT_SEEDS {
                assert!(
                    recorded.contains(&(w.name, seed)),
                    "{} seed {seed} missing",
                    w.name
                );
            }
        }
        assert_eq!(lookup("solve-dense", crate::universe::TENANT_SEEDS), None);
    }
}
