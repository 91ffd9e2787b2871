//! The immutable per-instance engine skeleton: the slot index, the blocked
//! per-interval column index, the per-`(interval, event)` posting runs
//! resolved against it, and the initial competing mass `B₀`.
//!
//! The dense layout this replaces kept `|T| · stride` slots per aggregate
//! column. Here each interval `t` owns a compact column holding only the
//! ranks with `σ(u,t) > 0` — CSR offsets into flat `ranks`/`σ` arrays, with
//! the engine's `B`/`M`/count arrays parallel to them — so resident memory
//! is `O(nnz + |T|)` where `nnz = Σ_t |{r : σ(u_r,t) > 0}|`. A slot with
//! `σ(u,t) = 0` is provably inert: every read path multiplies it by `σ`
//! (scores, losses, attendance probabilities, interval utilities), its term
//! is `±0.0`, and partial sums never sit at `-0.0`, so dropping the slot
//! keeps every result bit-identical to the dense layout (the contract
//! `crates/core/tests/sparse_layout.rs` pins against the hash-map oracle).
//!
//! Columns are built from the activity model in two
//! [`ActivityModel::for_each_active`] passes — count, prefix-sum, scatter —
//! without ever materializing a dense `|U| × |T|` intermediate, which is what
//! lets million-user instances construct in `O(nnz)`.
//!
//! Everything here is a pure function of the instance, so
//! [`EngineSkeleton::build`] runs once per instance (the instance caches it)
//! and every engine on that instance reads the same skeleton.

use crate::activity::ActivityModel;
use crate::ids::{EventId, UserId};
use crate::instance::SesInstance;

/// Rank sentinel for users outside the slot index (no posting anywhere).
pub(crate) const NO_RANK: u32 = u32::MAX;

/// The instance-derived index every engine on one instance shares.
///
/// It holds exactly what no engine operation mutates. The engine's own
/// state (`B`, `M`, counts, schedule, trackers, clock) lives in the engine;
/// its `B` starts as a copy of [`Self::b0`].
pub(crate) struct EngineSkeleton {
    /// `rank_of[u]` — the user's dense rank in the slot index, or
    /// [`NO_RANK`] for users outside it.
    pub(crate) rank_of: Vec<u32>,
    /// `resolved[e]` — event `e`'s posting list as `(rank, µ)` pairs.
    pub(crate) resolved: Vec<Box<[(u32, f64)]>>,
    /// The blocked per-interval column index (CSR offsets, ranks, `σ`).
    pub(crate) cols: IntervalColumns,
    /// Per-`(interval, event)` posting runs against partial columns.
    pub(crate) runs: ResolvedRuns,
    /// The instance's competing mass `B₀` per slot (parallel to
    /// `cols.ranks`).
    pub(crate) b0: Vec<f64>,
}

impl EngineSkeleton {
    /// Builds the slot index from the union of the candidate posting lists,
    /// pre-resolves every candidate event's postings to `(rank, µ)` pairs,
    /// builds the blocked `σ`-columns and per-interval runs, and accumulates
    /// the competing masses `B₀` — `O(nnz + |T| + Σ_h |postings(h)|)` plus
    /// the run resolution over partial columns, never a dense `|T|·stride`
    /// pass.
    pub(crate) fn build(inst: &SesInstance) -> Self {
        let nu = inst.num_users();
        let interest = inst.interest();

        // Union of *candidate* posting lists → dense ranks, in user-id
        // order. Users appearing only in competing posting lists get no
        // slot: they can never accrue scheduled mass, so every read path
        // (scores, attendances, interval utilities) provably never consults
        // their aggregates — indexing them would only inflate the columns.
        let mut in_index = vec![false; nu];
        for e in 0..inst.num_events() {
            for &(u, _) in interest.interested_users(EventId::new(e as u32).into()) {
                in_index[u.index()] = true;
            }
        }
        let mut rank_of = vec![NO_RANK; nu];
        let mut users: Vec<UserId> = Vec::new();
        for (u, &active) in in_index.iter().enumerate() {
            if active {
                rank_of[u] = users.len() as u32;
                users.push(UserId::new(u as u32));
            }
        }

        // Pre-resolve candidate posting lists to (rank, µ).
        let resolved: Vec<Box<[(u32, f64)]>> = (0..inst.num_events())
            .map(|e| {
                interest
                    .interested_users(EventId::new(e as u32).into())
                    .iter()
                    .map(|&(u, mu)| (rank_of[u.index()], mu))
                    .collect()
            })
            .collect();

        // Blocked σ-columns: only `σ(u,t) > 0` slots are resident.
        let cols = IntervalColumns::build(inst.activity(), &users, inst.num_intervals());

        // Competing mass. Competing-only users have no rank and σ = 0 slots
        // have no storage — both are skipped, and both are provably never
        // read (every consumer multiplies by σ, see the engine module docs).
        let mut b0 = vec![0.0; cols.nnz()];
        for c in inst.competing() {
            let t = c.interval.index();
            for &(u, mu) in interest.interested_users(c.id.into()) {
                let r = rank_of[u.index()];
                if r != NO_RANK {
                    if let Some(i) = cols.slot_of(t, r) {
                        b0[i] += mu;
                    }
                }
            }
        }

        let runs = ResolvedRuns::build(&cols, &resolved);
        Self {
            rank_of,
            resolved,
            cols,
            runs,
            b0,
        }
    }
}

/// The per-interval blocked column index: CSR offsets plus the parallel
/// rank and `σ` arrays. The engine keeps its `B`/`M`/count arrays parallel
/// to these (same flat slot index).
///
/// `offsets[t]..offsets[t+1]` is interval `t`'s column; `ranks` within a
/// column are strictly ascending (users are scattered in rank order, each
/// contributing at most one slot per interval). A *full* column
/// (`len == stride`) therefore has `ranks[start + r] == r`, so the global
/// rank doubles as the column-local slot — the fast path that keeps dense
/// instances on the exact same addressing as before.
pub(crate) struct IntervalColumns {
    /// Number of indexed users (ranks `0..stride`).
    pub(crate) stride: usize,
    /// CSR column boundaries, `len == |T| + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Rank ids per slot, ascending within each column.
    pub(crate) ranks: Vec<u32>,
    /// `σ(u,t)` snapshot per slot (strictly positive by construction).
    pub(crate) sigma: Vec<f64>,
}

impl IntervalColumns {
    /// Builds the columns for `users` (in rank order) over `nt` intervals.
    ///
    /// Two enumeration passes: count per interval, prefix-sum into offsets,
    /// then cursor-scatter ranks and `σ` values. Iterating users in rank
    /// order makes each column's ranks ascending without a sort.
    pub(crate) fn build(activity: &dyn ActivityModel, users: &[UserId], nt: usize) -> Self {
        let stride = users.len();
        let mut counts = vec![0usize; nt];
        for &u in users {
            activity.for_each_active(u, &mut |t, _sigma| counts[t.index()] += 1);
        }
        let mut offsets = Vec::with_capacity(nt + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let nnz = acc;
        let mut ranks = vec![0u32; nnz];
        let mut sigma = vec![0.0f64; nnz];
        let mut cursor = counts; // reuse: rewritten to running write positions
        cursor.copy_from_slice(&offsets[..nt]);
        for (r, &u) in users.iter().enumerate() {
            let mut prev: isize = -1;
            activity.for_each_active(u, &mut |t, s| {
                let ti = t.index();
                debug_assert!(
                    (ti as isize) > prev && ti < nt,
                    "for_each_active must visit ascending in-range intervals once"
                );
                debug_assert!(s > 0.0, "for_each_active must only yield σ > 0");
                prev = ti as isize;
                let slot = cursor[ti];
                ranks[slot] = r as u32;
                sigma[slot] = s;
                cursor[ti] = slot + 1;
            });
        }
        debug_assert!(
            cursor.iter().eq(offsets[1..].iter()),
            "for_each_active must enumerate identically across passes"
        );
        Self {
            stride,
            offsets,
            ranks,
            sigma,
        }
    }

    /// Number of slots in interval `t`'s column.
    #[inline]
    pub(crate) fn len(&self, t: usize) -> usize {
        self.offsets[t + 1] - self.offsets[t]
    }

    /// Whether interval `t`'s column holds every indexed rank.
    #[inline]
    pub(crate) fn is_full(&self, t: usize) -> bool {
        self.len(t) == self.stride
    }

    /// Flat index of `(t, rank)`'s slot, or `None` if `σ(u_rank, t) = 0`
    /// (the rank has no slot at `t`). Full columns resolve in `O(1)`;
    /// partial columns binary-search the rank list.
    #[inline]
    pub(crate) fn slot_of(&self, t: usize, rank: u32) -> Option<usize> {
        let start = self.offsets[t];
        let end = self.offsets[t + 1];
        if end - start == self.stride {
            return Some(start + rank as usize);
        }
        self.ranks[start..end]
            .binary_search(&rank)
            .ok()
            .map(|j| start + j)
    }

    /// Total resident slots (`nnz`).
    #[inline]
    pub(crate) fn nnz(&self) -> usize {
        self.ranks.len()
    }

    /// Bytes resident in the column arrays one engine reads: the shared
    /// ranks, offsets and `σ` plus the engine's own `B`/`M`/count. The
    /// skeleton's `B₀` template is not counted: it is one more `f64` per
    /// slot per instance, not per engine.
    pub(crate) fn resident_bytes(&self) -> u64 {
        let per_slot = size_of::<u32>()      // ranks
            + 3 * size_of::<f64>()           // b, m, sigma
            + size_of::<u32>(); // mcount
        (self.ranks.len() * per_slot + self.offsets.len() * size_of::<usize>()) as u64
    }
}

/// Per-`(interval, event)` posting runs: each event's `(rank, µ)` posting
/// list re-resolved to column-local `(slot, µ)` for every *partial* column.
///
/// Full columns need no run storage at all — there the global rank **is**
/// the local slot, so the engine walks the shared per-event `resolved` list
/// directly (zero extra memory on dense instances, which is every instance
/// built before the blocked layout existed). Runs preserve the posting-list
/// order, merely skipping the inert `σ = 0` entries, so the Eq. 4 reduction
/// visits survivors in the exact order the dense scan did.
pub(crate) struct ResolvedRuns {
    /// Number of candidate events (row width of `offsets`).
    ne: usize,
    /// `offsets[t·ne + e]..offsets[t·ne + e + 1]` is the run of `(e, t)`.
    /// Empty when every column is full (the all-dense fast path).
    offsets: Vec<usize>,
    /// Column-local `(slot, µ)` pairs.
    entries: Vec<(u32, f64)>,
}

impl ResolvedRuns {
    /// Resolves every event's postings against every partial column. One
    /// reusable rank→local scatter map bounds the pass at
    /// `O(nnz + Σ_partial t Σ_e |postings(e)|)`.
    pub(crate) fn build(cols: &IntervalColumns, resolved: &[Box<[(u32, f64)]>]) -> Self {
        let ne = resolved.len();
        let nt = cols.offsets.len() - 1;
        if (0..nt).all(|t| cols.is_full(t)) {
            return Self {
                ne,
                offsets: Vec::new(),
                entries: Vec::new(),
            };
        }
        const ABSENT: u32 = u32::MAX;
        let mut local_of = vec![ABSENT; cols.stride];
        let mut offsets = Vec::with_capacity(ne * nt + 1);
        offsets.push(0);
        let mut entries = Vec::new();
        for t in 0..nt {
            let full = cols.is_full(t);
            let col = &cols.ranks[cols.offsets[t]..cols.offsets[t + 1]];
            if !full {
                for (j, &r) in col.iter().enumerate() {
                    local_of[r as usize] = j as u32;
                }
            }
            for postings in resolved {
                if !full {
                    for &(r, mu) in postings.iter() {
                        let local = local_of[r as usize];
                        if local != ABSENT {
                            entries.push((local, mu));
                        }
                    }
                }
                offsets.push(entries.len());
            }
            if !full {
                for &r in col {
                    local_of[r as usize] = ABSENT;
                }
            }
        }
        Self {
            ne,
            offsets,
            entries,
        }
    }

    /// The run of `(event, t)`: the shared posting list itself when the
    /// column is full (rank ≡ local slot), otherwise the pre-resolved
    /// `(local_slot, µ)` slice. Taking `resolved` as a parameter (rather
    /// than reading it through the engine) keeps the returned borrow off the
    /// engine's mutable column fields, so mutation paths can walk a run
    /// while updating `m`/`mcount` in place.
    #[inline]
    pub(crate) fn run<'a>(
        &'a self,
        resolved: &'a [Box<[(u32, f64)]>],
        event: usize,
        t: usize,
        full: bool,
    ) -> &'a [(u32, f64)] {
        if full {
            return &resolved[event];
        }
        let row = t * self.ne + event;
        &self.entries[self.offsets[row]..self.offsets[row + 1]]
    }

    /// Bytes resident in the run arrays.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.entries.len() * size_of::<(u32, f64)>() + self.offsets.len() * size_of::<usize>())
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ConstantActivity, DenseActivity, MaskedActivity};
    use crate::ids::IntervalId;

    fn users(n: u32) -> Vec<UserId> {
        (0..n).map(UserId::new).collect()
    }

    #[test]
    fn constant_activity_builds_full_columns() {
        let act = ConstantActivity::new(5, 3, 0.7).unwrap();
        let cols = IntervalColumns::build(&act, &users(5), 3);
        assert_eq!(cols.nnz(), 15);
        for t in 0..3 {
            assert!(cols.is_full(t));
            for r in 0..5u32 {
                let slot = cols.slot_of(t, r).unwrap();
                assert_eq!(cols.ranks[slot], r);
                assert_eq!(cols.sigma[slot], 0.7);
            }
        }
    }

    #[test]
    fn dense_zeros_drop_slots_and_slot_of_misses() {
        // 3 users × 2 intervals; user 1 inactive at t0, user 2 inactive
        // everywhere.
        let act =
            DenseActivity::from_rows(vec![vec![0.5, 0.5], vec![0.0, 0.9], vec![0.0, 0.0]]).unwrap();
        let cols = IntervalColumns::build(&act, &users(3), 2);
        assert_eq!(cols.nnz(), 3);
        assert_eq!(cols.len(0), 1);
        assert_eq!(cols.len(1), 2);
        assert!(!cols.is_full(0));
        assert!(cols.slot_of(0, 1).is_none());
        assert!(cols.slot_of(1, 1).is_some());
        assert!(cols.slot_of(0, 2).is_none());
        assert!(cols.slot_of(1, 2).is_none());
        let s = cols.slot_of(0, 0).unwrap();
        assert_eq!(cols.sigma[s], 0.5);
    }

    #[test]
    fn columns_are_rank_sorted_even_for_masked_windows() {
        let act = MaskedActivity::sparse(40, 16, 5, 7);
        let cols = IntervalColumns::build(&act, &users(40), 16);
        assert_eq!(cols.nnz(), 40 * 5);
        for t in 0..16 {
            let col = &cols.ranks[cols.offsets[t]..cols.offsets[t + 1]];
            assert!(col.windows(2).all(|w| w[0] < w[1]), "t{t} not sorted");
            for (j, &r) in col.iter().enumerate() {
                assert_eq!(cols.slot_of(t, r), Some(cols.offsets[t] + j));
            }
        }
        // σ snapshots match the model bitwise.
        for t in 0..16u32 {
            for r in 0..40u32 {
                let direct = act.activity(UserId::new(r), IntervalId::new(t));
                match cols.slot_of(t as usize, r) {
                    Some(s) => assert_eq!(cols.sigma[s].to_bits(), direct.to_bits()),
                    None => assert_eq!(direct, 0.0),
                }
            }
        }
    }

    #[test]
    fn runs_share_postings_on_full_columns_and_localize_on_partial() {
        let act = DenseActivity::from_rows(vec![vec![0.5, 0.5], vec![0.0, 0.9]]).unwrap();
        let cols = IntervalColumns::build(&act, &users(2), 2);
        let resolved: Vec<Box<[(u32, f64)]>> = vec![
            vec![(0, 0.3), (1, 0.4)].into_boxed_slice(),
            vec![(1, 0.8)].into_boxed_slice(),
        ];
        let runs = ResolvedRuns::build(&cols, &resolved);
        // t0 is partial (only user 0): event 0's run keeps only rank 0 at
        // local slot 0; event 1's run is empty.
        assert_eq!(runs.run(&resolved, 0, 0, cols.is_full(0)), &[(0, 0.3)]);
        assert!(runs.run(&resolved, 1, 0, cols.is_full(0)).is_empty());
        // t1 is full: runs alias the shared posting lists.
        let shared = runs.run(&resolved, 0, 1, cols.is_full(1));
        assert_eq!(shared.as_ptr(), resolved[0].as_ptr());
        assert_eq!(runs.run(&resolved, 1, 1, cols.is_full(1)), &[(1, 0.8)]);
    }

    #[test]
    fn all_full_instances_store_no_run_entries() {
        let act = ConstantActivity::new(3, 4, 1.0).unwrap();
        let cols = IntervalColumns::build(&act, &users(3), 4);
        let resolved: Vec<Box<[(u32, f64)]>> = vec![vec![(0, 0.5), (2, 0.5)].into_boxed_slice()];
        let runs = ResolvedRuns::build(&cols, &resolved);
        assert_eq!(runs.resident_bytes(), 0);
        assert_eq!(
            runs.run(&resolved, 0, 3, cols.is_full(3)).as_ptr(),
            resolved[0].as_ptr()
        );
    }

    #[test]
    fn empty_shapes_build() {
        let act = ConstantActivity::new(0, 0, 1.0).unwrap();
        let cols = IntervalColumns::build(&act, &[], 0);
        assert_eq!(cols.nnz(), 0);
        let runs = ResolvedRuns::build(&cols, &[]);
        assert_eq!(runs.resident_bytes(), 0);
        // Empty interval columns on a non-empty universe.
        let act = DenseActivity::from_rows(vec![vec![0.0, 1.0]]).unwrap();
        let cols = IntervalColumns::build(&act, &users(1), 2);
        assert_eq!(cols.len(0), 0);
        assert_eq!(cols.len(1), 1);
        assert!(cols.slot_of(0, 0).is_none());
    }
}
