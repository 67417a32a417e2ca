//! Spatially sharded neighbor index: the million-vehicle backend.
//!
//! The serial [`SpatialGrid`](crate::grid::SpatialGrid) is exact for one
//! `(timestamp, slot-count)` stamp only. Radio jitter gives almost every
//! broadcast a fresh stamp, so the serial backend answers every
//! transmission with an O(N) scan (a build would cost more) — the dominant
//! cost once N reaches 10⁵. This module shards the highway into contiguous
//! **bands of grid-cell columns** (reusing `grid::cell_of` geometry so band
//! boundaries and serial cell boundaries coincide) and makes rebuilds both
//! *rare* and *parallel*:
//!
//! * **Rare** — cells are `2 × range` wide, leaving `range` meters of slack
//!   beyond the 3×3-coverage requirement. Queries evaluate candidate
//!   positions *live* (`Node::position(now)`, a pure function of time), so a
//!   stale index still returns bit-exact results as long as no node has
//!   drifted more than the slack since it was binned. Given a motion bound
//!   `v_max` (m/s), the index therefore stays valid for a horizon of
//!   `slack / v_max` virtual seconds and is only rebuilt when the horizon
//!   expires (a ½ safety factor is applied). With Table-I speeds
//!   (≤ 90 km/h = 25 m/s) and the paper's 1000 m range that is ~20 virtual
//!   seconds per rebuild instead of one rebuild per broadcast.
//! * **Parallel** — each band re-bins its own residents independently on a
//!   scoped worker thread (workers capped by [`crate::thread_budget`]).
//!   Nodes that crossed a band boundary are **not** inserted by the workers;
//!   they are staged as per-band emigrant batches and merged serially in
//!   fixed `(band, emission-order)` order — the same deterministic-merge
//!   discipline the parallel sweep and the orchestrator use — so index
//!   state is byte-identical for any worker count.
//!
//! # Bit-identity with the serial oracle
//!
//! Queries emit candidates in ascending slot order via the same bitmask
//! scan the serial grid uses, compute distances with the same
//! `distance_to(..) <= range` inclusive `f64` comparison on the same
//! live-evaluated positions, and filter the active set at query time.
//! Within one timestamp no inactive slot can become active (fault edges are
//! applied at event pop, before any query at that instant), so
//! "bin every slot, filter `active` per query" yields exactly the serial
//! grid's candidate set — for **any** shard count and any worker count.
//! The engine's RNG draw order, traces, `Stats::digest`, and
//! `engine_stamp` witnesses are therefore unchanged by construction.
//!
//! # Handoffs
//!
//! Band geometry (origin column and band width in cells) is frozen at the
//! first rebuild from the population's column bounding box; vehicles that
//! later leave the covered span are clamped to the edge bands. A vehicle
//! whose trajectory crosses a band boundary is handed off at the next
//! rebuild via the emigrant merge; [`ShardDiagnostics::handoffs`] counts
//! them.

use std::mem;

use crate::budget::thread_budget;
use crate::grid::{cell_of, CellMap};
use crate::{Position, Time};

/// Read-only view of the world's node slots.
///
/// The sharded index never touches `World` directly: it sees slots through
/// this narrow, `Sync` view so band workers can evaluate positions from
/// scoped threads while the index itself stays engine-agnostic.
pub(crate) trait SlotView: Sync {
    /// Total number of slots ever spawned (despawned slots included).
    fn slot_count(&self) -> usize;
    /// Whether the slot currently participates in the radio medium.
    fn is_active(&self, index: u32) -> bool;
    /// The slot's position at `now` (pure in `now`, callable for any slot).
    fn position(&self, index: u32, now: Time) -> Position;
}

/// Frozen band geometry: which cell columns belong to which shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BandMap {
    /// Cell side length in meters (`2 × radio range`).
    pub cell_size: f64,
    /// Leftmost column of the trimmed span frozen at first build.
    pub min_col: i64,
    /// Band width in whole cell columns (≥ 1).
    pub band_width: i64,
    /// Number of bands (= shard count).
    pub bands: usize,
}

impl BandMap {
    /// The band owning cell column `col`; columns outside the frozen span
    /// are clamped to the edge bands.
    #[inline]
    pub(crate) fn band_of_col(&self, col: i64) -> usize {
        (col - self.min_col)
            .div_euclid(self.band_width)
            .clamp(0, self.bands as i64 - 1) as usize
    }

    /// The band owning position `p`.
    #[inline]
    pub(crate) fn band_of_pos(&self, p: Position) -> usize {
        self.band_of_col(cell_of(self.cell_size, p).0)
    }
}

/// Counters describing sharded-index activity; exposed through
/// `World::shard_diagnostics` for benches and tests. These live outside
/// [`crate::Stats`] on purpose: they depend on the backend (and would
/// differ between serial and sharded runs), while `Stats::digest` must be
/// backend-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDiagnostics {
    /// Configured shard (band) count.
    pub shards: u32,
    /// Full index rebuilds performed (first build included).
    pub full_rebuilds: u64,
    /// Vehicles handed from one band to another across all rebuilds.
    pub handoffs: u64,
    /// In-range candidates a query found in a band other than the sender's
    /// — i.e. deliveries that crossed a shard boundary.
    pub cross_band_candidates: u64,
}

/// One shard: the residents and cell buckets of a contiguous column band.
#[derive(Default)]
struct Band {
    /// Slot indices whose last-binned position fell in this band.
    residents: Vec<u32>,
    /// Cell → resident indices, same keying as the serial grid.
    buckets: CellMap,
    /// Bounding box of this band's occupied cells, `(min, max)` inclusive.
    bounds: Option<((i64, i64), (i64, i64))>,
    /// Residents that left the band during the last re-bin, with their new
    /// cell; drained by the serial merge in emission order.
    emigrants: Vec<(u32, (i64, i64))>,
    /// Scratch for the surviving-resident list (capacity recycling).
    keep: Vec<u32>,
}

impl Band {
    /// Inserts `index` at `cell`, updating residents, buckets, and bounds.
    fn insert(&mut self, index: u32, cell: (i64, i64)) {
        self.residents.push(index);
        self.bucket(index, cell);
    }

    /// Buckets `index` at `cell` without touching the resident list.
    fn bucket(&mut self, index: u32, cell: (i64, i64)) {
        self.bounds = Some(match self.bounds {
            None => (cell, cell),
            Some((lo, hi)) => (
                (lo.0.min(cell.0), lo.1.min(cell.1)),
                (hi.0.max(cell.0), hi.1.max(cell.1)),
            ),
        });
        self.buckets.entry(cell).or_default().push(index);
    }

    /// Re-bins every resident at its position at `now`. Residents still in
    /// this band (`me`) are kept; the rest are staged as emigrants in
    /// deterministic resident order. Runs on a worker thread; touches only
    /// this band's state.
    fn rebin<V: SlotView + ?Sized>(&mut self, view: &V, now: Time, map: &BandMap, me: usize) {
        for bucket in self.buckets.values_mut() {
            bucket.clear();
        }
        self.bounds = None;
        self.emigrants.clear();
        self.keep.clear();
        let residents = mem::take(&mut self.residents);
        for &index in &residents {
            let cell = cell_of(map.cell_size, view.position(index, now));
            if map.band_of_col(cell.0) == me {
                self.keep.push(index);
                self.bucket(index, cell);
            } else {
                self.emigrants.push((index, cell));
            }
        }
        self.residents = mem::take(&mut self.keep);
        self.keep = residents;
        self.keep.clear();
    }
}

/// The sharded spatial index behind `WorldBackend::Sharded`.
pub(crate) struct ShardedIndex {
    /// Frozen band geometry; `None` until the first build (no slots yet).
    map: Option<BandMap>,
    bands: Vec<Band>,
    /// Query radius in meters; cells are `2 × range` wide.
    range: f64,
    /// Rebuild-on-every-new-timestamp mode (no finite motion bound).
    exact: bool,
    /// Staleness horizon in virtual microseconds (half the slack budget).
    horizon_micros: u64,
    /// Virtual time of the last full (re)build.
    built_at: Time,
    /// Slots binned so far; slots spawned later are binned incrementally.
    binned_slots: usize,
    /// First-build scratch: one cached cell per slot.
    scratch_cells: Vec<(i64, i64)>,
    /// Per-query candidate staging, identical to the serial grid's bitmask
    /// scheme (all-zero between queries; ascending-order emission).
    cand_mask: Vec<u64>,
    cand_dist: Vec<f64>,
    full_rebuilds: u64,
    handoffs: u64,
    cross_band_candidates: u64,
}

/// Whether `motion_bound_mps` selects exact mode: no staleness horizon,
/// so the index is rebuilt on every new timestamp. Any non-finite or
/// negative bound does; a finite non-negative one enables the horizon.
/// In exact mode the world answers broadcasts by scan, since an index
/// built for one timestamp would serve about one query.
pub(crate) fn exact_mode(motion_bound_mps: f64) -> bool {
    !(motion_bound_mps.is_finite() && motion_bound_mps >= 0.0)
}

impl ShardedIndex {
    /// Creates an index for `shards` bands over queries of radius `range`.
    ///
    /// `motion_bound_mps` bounds every node's speed: finite values enable
    /// the staleness horizon (`0` = static world, never expires); any
    /// non-finite or negative value selects exact per-timestamp rebuilds
    /// (see [`exact_mode`]).
    pub(crate) fn new(shards: usize, range: f64, motion_bound_mps: f64) -> Self {
        let shards = shards.max(1);
        let exact = exact_mode(motion_bound_mps);
        let horizon_micros = if exact {
            0
        } else if motion_bound_mps == 0.0 {
            u64::MAX
        } else {
            // Slack is `range` meters (cell = 2 × range); spend half of it
            // between rebuilds so accumulated float error has margin too.
            let secs = 0.5 * range / motion_bound_mps;
            (secs * 1e6).min(u64::MAX as f64) as u64
        };
        ShardedIndex {
            map: None,
            bands: (0..shards).map(|_| Band::default()).collect(),
            range,
            exact,
            horizon_micros,
            built_at: Time::ZERO,
            binned_slots: 0,
            scratch_cells: Vec::new(),
            cand_mask: Vec::new(),
            cand_dist: Vec::new(),
            full_rebuilds: 0,
            handoffs: 0,
            cross_band_candidates: 0,
        }
    }

    /// Configured shard count.
    pub(crate) fn shard_count(&self) -> usize {
        self.bands.len()
    }

    /// Frozen band geometry, once the first build has happened.
    pub(crate) fn band_map(&self) -> Option<BandMap> {
        self.map
    }

    /// Activity counters for benches and tests.
    pub(crate) fn diagnostics(&self) -> ShardDiagnostics {
        ShardDiagnostics {
            shards: self.bands.len() as u32,
            full_rebuilds: self.full_rebuilds,
            handoffs: self.handoffs,
            cross_band_candidates: self.cross_band_candidates,
        }
    }

    /// Brings the index up to date for queries at `now`: full rebuild when
    /// the staleness horizon expired (or on any new timestamp in exact
    /// mode), otherwise just incremental binning of newly spawned slots.
    pub(crate) fn refresh<V: SlotView + ?Sized>(&mut self, view: &V, now: Time) {
        let due = match self.map {
            None => true,
            Some(_) => {
                if self.exact {
                    now != self.built_at
                } else {
                    now.saturating_since(self.built_at).as_micros() > self.horizon_micros
                }
            }
        };
        if due {
            self.rebuild(view, now);
        } else if view.slot_count() > self.binned_slots {
            self.bin_new_slots(view, now);
        }
    }

    fn rebuild<V: SlotView + ?Sized>(&mut self, view: &V, now: Time) {
        self.built_at = now;
        if self.map.is_none() {
            self.first_build(view, now);
            return;
        }
        self.full_rebuilds += 1;
        let map = self.map.expect("geometry frozen after first build");

        // Parallel phase: each band re-bins its own residents. Bands are
        // disjoint, so worker count (and interleaving) cannot affect any
        // band's resulting state.
        let workers = thread_budget().min(self.bands.len()).max(1);
        if workers == 1 {
            for (me, band) in self.bands.iter_mut().enumerate() {
                band.rebin(view, now, &map, me);
            }
        } else {
            let per = self.bands.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (chunk_no, chunk) in self.bands.chunks_mut(per).enumerate() {
                    let base = chunk_no * per;
                    scope.spawn(move || {
                        for (offset, band) in chunk.iter_mut().enumerate() {
                            band.rebin(view, now, &map, base + offset);
                        }
                    });
                }
            });
        }

        // Serial merge phase: hand emigrants to their new bands in fixed
        // (source band, emission order) — deterministic by construction.
        for source in 0..self.bands.len() {
            let mut staged = mem::take(&mut self.bands[source].emigrants);
            for &(index, cell) in &staged {
                self.bands[map.band_of_col(cell.0)].insert(index, cell);
                self.handoffs += 1;
            }
            staged.clear();
            self.bands[source].emigrants = staged;
        }

        // Slots spawned since the previous refresh.
        self.bin_new_slots(view, now);
    }

    /// First build: freeze band geometry from the current occupied column
    /// span, then bin every slot. Serial — it runs once per world.
    ///
    /// The span is *trimmed*: the outermost 5% of slots on each side are
    /// ignored when choosing the band edges. Off-plane anchors — the
    /// scenario's TA nodes sit at `(-1e7, -1e7)` precisely so radio can
    /// never reach them — would otherwise stretch the bounding box by
    /// thousands of empty columns and collapse the whole radio plane into
    /// a single band. Trimming costs nothing: [`BandMap::band_of_col`]
    /// clamps out-of-span columns to the edge bands, and band ownership
    /// never affects query results (only load distribution), so the
    /// choice of span cannot perturb a trace.
    fn first_build<V: SlotView + ?Sized>(&mut self, view: &V, now: Time) {
        let slots = view.slot_count();
        if slots == 0 {
            return; // keep `map` unset; retry on the next refresh
        }
        self.full_rebuilds += 1;
        let cell_size = 2.0 * self.range;
        self.scratch_cells.clear();
        for index in 0..slots {
            let cell = cell_of(cell_size, view.position(index as u32, now));
            self.scratch_cells.push(cell);
        }
        let mut cols: Vec<i64> = self.scratch_cells.iter().map(|c| c.0).collect();
        cols.sort_unstable();
        let trim = slots / 20;
        let (lo, hi) = (cols[trim], cols[slots - 1 - trim]);
        let span = hi - lo + 1;
        // Ceiling division; `span >= 1` here (signed `div_ceil` is not
        // stable on this toolchain).
        let shards = self.bands.len() as i64;
        let width = ((span + shards - 1) / shards).max(1);
        let map = BandMap {
            cell_size,
            min_col: lo,
            band_width: width,
            bands: self.bands.len(),
        };
        for (index, &cell) in self.scratch_cells.iter().enumerate() {
            self.bands[map.band_of_col(cell.0)].insert(index as u32, cell);
        }
        self.map = Some(map);
        self.binned_slots = slots;
    }

    /// Bins slots spawned since the last refresh (indices are append-only).
    fn bin_new_slots<V: SlotView + ?Sized>(&mut self, view: &V, now: Time) {
        let map = self.map.expect("geometry frozen after first build");
        for index in self.binned_slots..view.slot_count() {
            let cell = cell_of(map.cell_size, view.position(index as u32, now));
            self.bands[map.band_of_col(cell.0)].insert(index as u32, cell);
        }
        self.binned_slots = view.slot_count();
    }

    /// Appends every active node within `range` of `center` (inclusive) to
    /// `out` as `(index, distance)` pairs in **ascending index order**,
    /// skipping `exclude` — byte-identical to the serial grid and the
    /// brute-force scan. Call [`Self::refresh`] for the same `now` first.
    pub(crate) fn query_into<V: SlotView + ?Sized>(
        &mut self,
        view: &V,
        now: Time,
        center: Position,
        exclude: u32,
        out: &mut Vec<(u32, f64)>,
    ) {
        let Some(map) = self.map else {
            return;
        };
        let slots = view.slot_count();
        let range = self.range;
        self.cand_dist.resize(slots, 0.0);
        self.cand_mask.resize(slots.div_ceil(64), 0);
        let (cx, cy) = cell_of(map.cell_size, center);
        let home = map.band_of_col(cx);
        let mut crossed = 0u64;
        let ShardedIndex {
            bands,
            cand_mask,
            cand_dist,
            ..
        } = self;
        for x in (cx - 1)..=(cx + 1) {
            let b = map.band_of_col(x);
            let band = &bands[b];
            let Some((lo, hi)) = band.bounds else {
                continue;
            };
            if x < lo.0 || x > hi.0 {
                continue;
            }
            for y in (cy - 1).max(lo.1)..=(cy + 1).min(hi.1) {
                let Some(bucket) = band.buckets.get(&(x, y)) else {
                    continue;
                };
                for &index in bucket {
                    if index == exclude || !view.is_active(index) {
                        continue;
                    }
                    let dist = center.distance_to(view.position(index, now));
                    if dist <= range {
                        cand_mask[index as usize / 64] |= 1u64 << (index % 64);
                        cand_dist[index as usize] = dist;
                        if b != home {
                            crossed += 1;
                        }
                    }
                }
            }
        }
        self.cross_band_candidates += crossed;
        for (w, word) in self.cand_mask.iter_mut().enumerate() {
            let mut m = *word;
            *word = 0; // restore the all-zero invariant
            while m != 0 {
                let index = w * 64 + m.trailing_zeros() as usize;
                out.push((index as u32, cand_dist[index]));
                m &= m - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear-motion test fixture: slot i is at `start + velocity * t`.
    struct TestView {
        nodes: Vec<(Position, (f64, f64), bool)>,
    }

    impl TestView {
        fn moving(nodes: Vec<(Position, (f64, f64))>) -> Self {
            TestView {
                nodes: nodes.into_iter().map(|(p, v)| (p, v, true)).collect(),
            }
        }

        fn still(points: Vec<Position>) -> Self {
            TestView {
                nodes: points.into_iter().map(|p| (p, (0.0, 0.0), true)).collect(),
            }
        }
    }

    impl SlotView for TestView {
        fn slot_count(&self) -> usize {
            self.nodes.len()
        }
        fn is_active(&self, index: u32) -> bool {
            self.nodes[index as usize].2
        }
        fn position(&self, index: u32, now: Time) -> Position {
            let (p, v, _) = self.nodes[index as usize];
            let t = now.as_secs_f64();
            Position::new(p.x + v.0 * t, p.y + v.1 * t)
        }
    }

    fn scan(view: &TestView, now: Time, center: Position, range: f64, exclude: u32) -> Vec<u32> {
        (0..view.slot_count() as u32)
            .filter(|&i| i != exclude && view.is_active(i))
            .filter(|&i| center.distance_to(view.position(i, now)) <= range)
            .collect()
    }

    fn query(
        index: &mut ShardedIndex,
        view: &TestView,
        now: Time,
        center: Position,
        exclude: u32,
    ) -> Vec<u32> {
        index.refresh(view, now);
        let mut out = Vec::new();
        index.query_into(view, now, center, exclude, &mut out);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "sharded query must emit ascending indices"
        );
        out.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn matches_scan_on_a_static_strip_for_many_shard_counts() {
        // 90 nodes spread over 9 km: wide enough for several bands.
        let view = TestView::still(
            (0..90)
                .map(|i| Position::new(i as f64 * 100.0, (i % 3) as f64 * 50.0))
                .collect(),
        );
        for shards in [1, 2, 3, 7] {
            let mut index = ShardedIndex::new(shards, 1000.0, f64::INFINITY);
            for probe in [0u32, 17, 45, 89] {
                let center = view.position(probe, Time::ZERO);
                assert_eq!(
                    query(&mut index, &view, Time::ZERO, center, probe),
                    scan(&view, Time::ZERO, center, 1000.0, probe),
                    "shards={shards} probe={probe}"
                );
            }
        }
    }

    #[test]
    fn stale_index_is_exact_within_the_motion_horizon() {
        // 30 m/s movers; horizon = 0.5 * 1000 / 30 ≈ 16.6 s.
        let view = TestView::moving(
            (0..80)
                .map(|i| (Position::new(i as f64 * 120.0, 0.0), (30.0, 0.0)))
                .collect(),
        );
        let mut index = ShardedIndex::new(3, 1000.0, 30.0);
        let mut probed = false;
        for secs in [0u64, 5, 10, 15] {
            let now = Time::from_secs(secs);
            for probe in [3u32, 40, 79] {
                let center = view.position(probe, now);
                assert_eq!(
                    query(&mut index, &view, now, center, probe),
                    scan(&view, now, center, 1000.0, probe),
                    "t={secs}s probe={probe}"
                );
                probed = true;
            }
        }
        assert!(probed);
        // All four timestamps fit inside one horizon: a single build.
        assert_eq!(index.diagnostics().full_rebuilds, 1);
    }

    #[test]
    fn horizon_expiry_rebuilds_and_hands_off() {
        let view = TestView::moving(
            (0..70)
                .map(|i| (Position::new(i as f64 * 150.0, 0.0), (25.0, 0.0)))
                .collect(),
        );
        let mut index = ShardedIndex::new(5, 1000.0, 25.0);
        // Horizon = 0.5 * 1000 / 25 = 20 s; sample well past several.
        for secs in [0u64, 30, 60, 90] {
            let now = Time::from_secs(secs);
            let center = view.position(35, now);
            assert_eq!(
                query(&mut index, &view, now, center, 35),
                scan(&view, now, center, 1000.0, 35),
                "t={secs}s"
            );
        }
        let diag = index.diagnostics();
        assert!(diag.full_rebuilds >= 4, "expected rebuilds, got {diag:?}");
        // 90 s at 25 m/s is 2250 m = more than one 2000 m band width: some
        // node must have crossed a boundary.
        assert!(diag.handoffs > 0, "expected handoffs, got {diag:?}");
    }

    #[test]
    fn despawned_nodes_are_filtered_and_restarts_reappear() {
        let mut view = TestView::still((0..70).map(|i| Position::new(i as f64 * 30.0, 0.0)).collect());
        let mut index = ShardedIndex::new(2, 1000.0, 0.0);
        let t0 = Time::ZERO;
        let baseline = query(&mut index, &view, t0, view.position(10, t0), 10);
        assert!(baseline.contains(&12));
        // Crash node 12: it must vanish from queries without any rebuild.
        view.nodes[12].2 = false;
        assert_eq!(
            query(&mut index, &view, t0, view.position(10, t0), 10),
            scan(&view, t0, view.position(10, t0), 1000.0, 10),
        );
        // Restart it: it must reappear, again without a rebuild (the index
        // bins every slot and filters `active` per query).
        view.nodes[12].2 = true;
        assert_eq!(
            query(&mut index, &view, t0, view.position(10, t0), 10),
            baseline
        );
        assert_eq!(index.diagnostics().full_rebuilds, 1);
    }

    #[test]
    fn late_spawns_are_binned_incrementally() {
        let mut view = TestView::still((0..66).map(|i| Position::new(i as f64 * 40.0, 0.0)).collect());
        let mut index = ShardedIndex::new(3, 1000.0, 0.0);
        let t0 = Time::ZERO;
        let _ = query(&mut index, &view, t0, view.position(0, t0), 0);
        view.nodes.push((Position::new(120.0, 10.0), (0.0, 0.0), true));
        let got = query(&mut index, &view, t0, view.position(0, t0), 0);
        assert!(got.contains(&66), "newly spawned slot must be queryable");
        assert_eq!(index.diagnostics().full_rebuilds, 1);
    }

    #[test]
    fn band_geometry_is_frozen_and_clamps_outliers() {
        let view = TestView::still((0..70).map(|i| Position::new(i as f64 * 100.0, 0.0)).collect());
        let mut index = ShardedIndex::new(4, 1000.0, 0.0);
        index.refresh(&view, Time::ZERO);
        let map = index.band_map().expect("built");
        assert_eq!(map.bands, 4);
        // Far outside the frozen span on both sides: clamped to edge bands.
        assert_eq!(map.band_of_pos(Position::new(-1e7, 0.0)), 0);
        assert_eq!(map.band_of_pos(Position::new(1e7, 0.0)), 3);
        // Monotone left-to-right coverage.
        let first = map.band_of_pos(view.position(0, Time::ZERO));
        let last = map.band_of_pos(view.position(69, Time::ZERO));
        assert_eq!(first, 0);
        assert_eq!(last, 3);
    }

    #[test]
    fn exact_mode_rebuilds_on_every_new_timestamp() {
        let view = TestView::moving(
            (0..70)
                .map(|i| (Position::new(i as f64 * 100.0, 0.0), (10.0, 0.0)))
                .collect(),
        );
        let mut index = ShardedIndex::new(2, 1000.0, f64::INFINITY);
        for micros in [0u64, 1, 2, 500] {
            let now = Time::from_micros(micros);
            let center = view.position(7, now);
            assert_eq!(
                query(&mut index, &view, now, center, 7),
                scan(&view, now, center, 1000.0, 7)
            );
        }
        assert_eq!(index.diagnostics().full_rebuilds, 4);
    }
}
