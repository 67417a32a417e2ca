//! Spatial hash grid backing the radio medium's neighbor queries.
//!
//! A brute-force neighbor query scans every node in the world — O(N) per
//! query, O(N²) per beacon interval at highway densities. The grid hashes node
//! positions into square cells whose side equals the radio range, so any
//! receiver within range of a sender lies in the sender's cell or one of the
//! eight surrounding cells: a query inspects at most 9 buckets instead of
//! the whole population.
//!
//! The grid is rebuilt lazily, at most once per `(virtual timestamp, slot
//! count)` stamp: node trajectories are pure functions of time, so a
//! position evaluated once per tick holds for the whole tick. A build
//! evaluates and hashes every position, which costs more than one linear
//! scan, and radio jitter puts almost every broadcast on a fresh stamp; so
//! the world answers broadcasts with the scan and builds this grid only
//! for `World::neighbors_of`, the differential oracle of the sharded
//! index. Bucket vectors and the position cache are retained across
//! rebuilds so the steady-state hot path performs no allocation.
//!
//! Results are **bit-identical** to the brute-force scan: the inclusive
//! range check uses the same `distance <= range` comparison on the same
//! `f64` inputs, and candidates are emitted in ascending id order — the
//! order the linear scan produced — preserving the world's RNG draw order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Position;

/// FxHash-style multiplicative hasher for cell coordinates.
///
/// Bucket lookups sit on the per-broadcast hot path (up to 9 per query);
/// SipHash's keyed rounds cost more than the rest of the query combined.
/// Cell keys are small structured integers with no DoS surface — the grid
/// is rebuilt from simulation state, not attacker input — so a two-multiply
/// hash is safe and much faster.
#[derive(Default)]
pub(crate) struct CellHasher(u64);

impl CellHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for CellHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type CellMap = HashMap<(i64, i64), Vec<u32>, BuildHasherDefault<CellHasher>>;

/// Incrementally reusable spatial hash over node positions.
///
/// Cell side length equals the query range (the radio range), so a 3×3
/// neighborhood around the query cell is guaranteed to cover the inclusive
/// disk of that radius: `|dx| <= r` implies the cell-coordinate delta along
/// each axis is at most 1.
pub(crate) struct SpatialGrid {
    cell_size: f64,
    /// Cell coordinates → node indices in that cell. Bucket vectors are
    /// cleared, not dropped, on rebuild, so their capacity is retained.
    buckets: CellMap,
    /// Position cache indexed by node slot index; entries for nodes absent
    /// from the grid (inactive at rebuild time) are placeholders and are
    /// never read, because queries only yield indices present in buckets.
    positions: Vec<Position>,
    /// Bounding box of occupied cells, `(min, max)` inclusive; lets queries
    /// skip lookups for rows/columns no node occupies (highway worlds are
    /// one cell tall, so this drops 6 of the 9 neighborhood lookups).
    bounds: Option<((i64, i64), (i64, i64))>,
    /// Per-query distance staging, indexed by node slot; only entries whose
    /// bit is set in `cand_mask` are ever read.
    cand_dist: Vec<f64>,
    /// Per-query candidate bitmask (one bit per slot). Scanning its words
    /// low-to-high with `trailing_zeros` emits candidates in ascending
    /// index order without a sort. Invariant: all-zero between queries.
    cand_mask: Vec<u64>,
    /// Rebuilds performed, for the world's build-count test.
    #[cfg(test)]
    pub(crate) builds: u64,
}

/// The grid cell containing `p` for the given cell side length. Shared
/// with the sharded backend so band geometry and the serial grid agree on
/// cell boundaries.
#[inline]
pub(crate) fn cell_of(cell_size: f64, p: Position) -> (i64, i64) {
    ((p.x / cell_size).floor() as i64, (p.y / cell_size).floor() as i64)
}

impl SpatialGrid {
    pub(crate) fn new() -> Self {
        SpatialGrid {
            cell_size: 1.0,
            buckets: CellMap::default(),
            positions: Vec::new(),
            bounds: None,
            cand_dist: Vec::new(),
            cand_mask: Vec::new(),
            #[cfg(test)]
            builds: 0,
        }
    }

    /// Rebuilds the grid from `(index, position)` pairs of the nodes that
    /// should be queryable (the active set). `slots` is the total slot
    /// count, bounding the indices that may appear.
    pub(crate) fn rebuild(
        &mut self,
        cell_size: f64,
        slots: usize,
        nodes: impl Iterator<Item = (u32, Position)>,
    ) {
        debug_assert!(cell_size > 0.0 && cell_size.is_finite());
        #[cfg(test)]
        {
            self.builds += 1;
        }
        self.cell_size = cell_size;
        for bucket in self.buckets.values_mut() {
            bucket.clear();
        }
        self.positions.clear();
        self.positions.resize(slots, Position::ORIGIN);
        self.cand_dist.resize(slots, 0.0);
        self.cand_mask.resize(slots.div_ceil(64), 0);
        self.bounds = None;
        for (index, pos) in nodes {
            self.positions[index as usize] = pos;
            let key = cell_of(cell_size, pos);
            self.bounds = Some(match self.bounds {
                None => (key, key),
                Some((lo, hi)) => (
                    (lo.0.min(key.0), lo.1.min(key.1)),
                    (hi.0.max(key.0), hi.1.max(key.1)),
                ),
            });
            self.buckets.entry(key).or_default().push(index);
        }
    }

    /// Appends every node within `range` meters of `center` (inclusive,
    /// matching [`Position::within_range`]) to `out` as
    /// `(index, distance)` pairs in **ascending index order**, skipping
    /// `exclude`.
    ///
    /// In-range candidates are recorded in a slot-indexed bitmask whose
    /// words are then scanned low-to-high, so the output comes out in
    /// exactly the order the brute-force linear scan yields — which is what
    /// keeps RNG draw order identical — without a comparison sort.
    pub(crate) fn query_into(
        &mut self,
        center: Position,
        range: f64,
        exclude: u32,
        out: &mut Vec<(u32, f64)>,
    ) {
        debug_assert!(
            range <= self.cell_size,
            "query range exceeds cell size: 3x3 neighborhood would miss nodes"
        );
        let Some((lo, hi)) = self.bounds else {
            return;
        };
        let (cx, cy) = cell_of(self.cell_size, center);
        let (x0, x1) = ((cx - 1).max(lo.0), (cx + 1).min(hi.0));
        let (y0, y1) = ((cy - 1).max(lo.1), (cy + 1).min(hi.1));
        let SpatialGrid {
            buckets,
            positions,
            cand_dist,
            cand_mask,
            ..
        } = self;
        for x in x0..=x1 {
            for y in y0..=y1 {
                let Some(bucket) = buckets.get(&(x, y)) else {
                    continue;
                };
                for &index in bucket {
                    if index == exclude {
                        continue;
                    }
                    let dist = center.distance_to(positions[index as usize]);
                    if dist <= range {
                        cand_mask[index as usize / 64] |= 1u64 << (index % 64);
                        cand_dist[index as usize] = dist;
                    }
                }
            }
        }
        for (w, word) in cand_mask.iter_mut().enumerate() {
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

    fn collect(grid: &mut SpatialGrid, center: Position, range: f64, exclude: u32) -> Vec<u32> {
        let mut out = Vec::new();
        grid.query_into(center, range, exclude, &mut out);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "query output must be in strictly ascending index order"
        );
        out.into_iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn finds_neighbors_across_cell_boundaries() {
        let mut g = SpatialGrid::new();
        let pts = [
            (0, Position::new(50.0, 50.0)),
            (1, Position::new(150.0, 50.0)),  // adjacent cell, within 100 m? dist=100 inclusive
            (2, Position::new(250.0, 50.0)),  // two cells over, out of range
            (3, Position::new(50.0, 149.0)),  // adjacent cell above, within range
        ];
        g.rebuild(100.0, 4, pts.iter().copied());
        assert_eq!(collect(&mut g, pts[0].1, 100.0, 0), vec![1, 3]);
    }

    #[test]
    fn inclusive_at_exact_range() {
        let mut g = SpatialGrid::new();
        let pts = [(0, Position::ORIGIN), (1, Position::new(100.0, 0.0))];
        g.rebuild(100.0, 2, pts.iter().copied());
        assert_eq!(collect(&mut g, Position::ORIGIN, 100.0, 0), vec![1]);
        assert!(collect(&mut g, Position::ORIGIN, 99.999, 0).is_empty());
    }

    #[test]
    fn handles_negative_coordinates() {
        let mut g = SpatialGrid::new();
        let pts = [(0, Position::new(-5.0, -5.0)), (1, Position::new(5.0, 5.0))];
        g.rebuild(100.0, 2, pts.iter().copied());
        assert_eq!(collect(&mut g, pts[0].1, 100.0, 0), vec![1]);
    }

    #[test]
    fn rebuild_reuses_buckets_and_drops_stale_nodes() {
        let mut g = SpatialGrid::new();
        g.rebuild(100.0, 2, [(0, Position::ORIGIN), (1, Position::new(10.0, 0.0))].into_iter());
        assert_eq!(collect(&mut g, Position::ORIGIN, 100.0, 0), vec![1]);
        // Node 1 gone after rebuild; node 0 moved far away.
        g.rebuild(100.0, 2, [(0, Position::new(5000.0, 0.0))].into_iter());
        assert!(collect(&mut g, Position::ORIGIN, 100.0, u32::MAX).is_empty());
        assert_eq!(collect(&mut g, Position::new(5000.0, 0.0), 100.0, 1), vec![0]);
    }
}
