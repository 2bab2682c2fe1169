//! Rectangular sky regions (`ra/dec` boxes).
//!
//! All of the paper's selections are coordinate-window queries:
//! `WHERE ra BETWEEN .. AND dec BETWEEN ..` (Figures 4 and 5). A
//! [`SkyRegion`] models such a box, plus the buffered/partitioned variants
//! the implementations need:
//!
//! * the TAM tiling: 0.5 x 0.5 deg targets inside 1 x 1 deg buffer files;
//! * the SQL target `T` (e.g. 11 x 6 = 66 deg^2) inside a buffer region
//!   `B`/`P` extended by 0.5 deg on every side (13 x 8 = 104 deg^2);
//! * the 3-way zone partitioning of Figure 6 with 1 deg duplicated stripes.

/// An inclusive rectangular window on the sky, in degrees.
///
/// Regions used by this workspace stay away from the RA wrap point and the
/// poles, just like the paper's SDSS stripes; `ra_min <= ra_max` is required.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyRegion {
    /// Western edge, degrees.
    pub ra_min: f64,
    /// Eastern edge, degrees.
    pub ra_max: f64,
    /// Southern edge, degrees.
    pub dec_min: f64,
    /// Northern edge, degrees.
    pub dec_max: f64,
}

impl SkyRegion {
    /// Create a region; panics on an inverted window, which is always a
    /// programming error in this workspace (regions come from presets or
    /// arithmetic on presets).
    pub fn new(ra_min: f64, ra_max: f64, dec_min: f64, dec_max: f64) -> Self {
        assert!(
            ra_min <= ra_max && dec_min <= dec_max,
            "inverted region: ra [{ra_min}, {ra_max}], dec [{dec_min}, {dec_max}]"
        );
        SkyRegion { ra_min, ra_max, dec_min, dec_max }
    }

    /// The paper's main test case: an 11 x 6 = 66 deg^2 target area
    /// (`EXEC spMakeCandidates 172.5, 184.5, -2.5, 4.5` ... the target is
    /// `ra in [173, 184], dec in [-2, 4]` per Figure 5).
    pub fn paper_target_66() -> Self {
        SkyRegion::new(173.0, 184.0, -2.0, 4.0)
    }

    /// The paper's 13 x 8 = 104 deg^2 import region (`EXEC spImportGalaxy
    /// 172, 185, -3, 5`).
    pub fn paper_import_104() -> Self {
        SkyRegion::new(172.0, 185.0, -3.0, 5.0)
    }

    /// Width in RA degrees (coordinate span, not proper length).
    pub fn ra_span(&self) -> f64 {
        self.ra_max - self.ra_min
    }

    /// Height in Dec degrees.
    pub fn dec_span(&self) -> f64 {
        self.dec_max - self.dec_min
    }

    /// Coordinate-box area in deg^2, the convention the paper uses when it
    /// says "66 deg^2" (11 x 6 near the equator).
    pub fn area_deg2(&self) -> f64 {
        self.ra_span() * self.dec_span()
    }

    /// Containment test with inclusive bounds, matching SQL `BETWEEN`.
    #[inline]
    pub fn contains(&self, ra: f64, dec: f64) -> bool {
        ra >= self.ra_min && ra <= self.ra_max && dec >= self.dec_min && dec <= self.dec_max
    }

    /// Expand the window by `margin` degrees on every side — the buffer
    /// construction of Figures 1 and 4.
    pub fn expanded(&self, margin: f64) -> SkyRegion {
        SkyRegion::new(
            self.ra_min - margin,
            self.ra_max + margin,
            self.dec_min - margin,
            self.dec_max + margin,
        )
    }

    /// Shrink by `margin` degrees on every side (inverse of [`expanded`];
    /// panics if the region would invert).
    ///
    /// [`expanded`]: SkyRegion::expanded
    pub fn shrunk(&self, margin: f64) -> SkyRegion {
        self.expanded(-margin)
    }

    /// Intersection with another region, `None` when disjoint.
    pub fn intersect(&self, other: &SkyRegion) -> Option<SkyRegion> {
        let ra_min = self.ra_min.max(other.ra_min);
        let ra_max = self.ra_max.min(other.ra_max);
        let dec_min = self.dec_min.max(other.dec_min);
        let dec_max = self.dec_max.min(other.dec_max);
        if ra_min <= ra_max && dec_min <= dec_max {
            Some(SkyRegion::new(ra_min, ra_max, dec_min, dec_max))
        } else {
            None
        }
    }

    /// Center of the box.
    pub fn center(&self) -> (f64, f64) {
        (
            (self.ra_min + self.ra_max) / 2.0,
            (self.dec_min + self.dec_max) / 2.0,
        )
    }

    /// Split into `n` horizontal (declination) stripes of equal height —
    /// the zone-partitioning unit of Figure 6. Stripe `0` is the bottom one.
    pub fn dec_stripes(&self, n: usize) -> Vec<SkyRegion> {
        assert!(n > 0, "cannot split into zero stripes");
        let h = self.dec_span() / n as f64;
        (0..n)
            .map(|k| {
                SkyRegion::new(
                    self.ra_min,
                    self.ra_max,
                    self.dec_min + h * k as f64,
                    // Use the exact top for the last stripe to avoid float
                    // drift leaving a sliver uncovered.
                    if k + 1 == n { self.dec_max } else { self.dec_min + h * (k + 1) as f64 },
                )
            })
            .collect()
    }

    /// The buffered partition layout of Figure 6: split the region into `n`
    /// native dec stripes, then give every stripe `margin` degrees of
    /// duplicated sky on each interior edge (stripes at the survey edge get
    /// no buffer beyond the region). Returns `(native, buffered)` pairs.
    pub fn partition_with_buffers(&self, n: usize, margin: f64) -> Vec<(SkyRegion, SkyRegion)> {
        self.dec_stripes(n)
            .into_iter()
            .enumerate()
            .map(|(k, native)| {
                let dec_min = if k == 0 { native.dec_min } else { native.dec_min - margin };
                let dec_max = if k + 1 == n { native.dec_max } else { native.dec_max + margin };
                (
                    native,
                    SkyRegion::new(self.ra_min, self.ra_max, dec_min.max(self.dec_min - margin), dec_max.min(self.dec_max + margin)),
                )
            })
            .collect()
    }
}

impl std::fmt::Display for SkyRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ra [{:.3}, {:.3}] dec [{:.3}, {:.3}] ({:.1} deg^2)",
            self.ra_min,
            self.ra_max,
            self.dec_min,
            self.dec_max,
            self.area_deg2()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_regions_have_paper_areas() {
        assert!((SkyRegion::paper_target_66().area_deg2() - 66.0).abs() < 1e-9);
        assert!((SkyRegion::paper_import_104().area_deg2() - 104.0).abs() < 1e-9);
    }

    #[test]
    fn import_region_is_target_plus_one_degree() {
        // 13 x 8 = (11 + 2) x (6 + 2): the import region gives the target a
        // 0.5 deg candidate buffer plus 0.5 deg of neighbor buffer.
        let t = SkyRegion::paper_target_66();
        let p = SkyRegion::paper_import_104();
        assert_eq!(t.expanded(1.0), p);
    }

    #[test]
    fn contains_is_inclusive_like_sql_between() {
        let r = SkyRegion::new(10.0, 20.0, -1.0, 1.0);
        assert!(r.contains(10.0, -1.0));
        assert!(r.contains(20.0, 1.0));
        assert!(!r.contains(20.0001, 0.0));
        assert!(!r.contains(15.0, 1.0001));
    }

    #[test]
    fn expand_shrink_roundtrip() {
        let r = SkyRegion::new(10.0, 20.0, -1.0, 1.0);
        assert_eq!(r.expanded(0.5).shrunk(0.5), r);
    }

    #[test]
    fn intersect_disjoint_is_none() {
        let a = SkyRegion::new(0.0, 1.0, 0.0, 1.0);
        let b = SkyRegion::new(2.0, 3.0, 0.0, 1.0);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn intersect_overlapping() {
        let a = SkyRegion::new(0.0, 2.0, 0.0, 2.0);
        let b = SkyRegion::new(1.0, 3.0, 1.0, 3.0);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, SkyRegion::new(1.0, 2.0, 1.0, 2.0));
    }

    #[test]
    fn stripes_tile_exactly() {
        let r = SkyRegion::paper_import_104();
        let stripes = r.dec_stripes(3);
        assert_eq!(stripes.len(), 3);
        assert_eq!(stripes[0].dec_min, r.dec_min);
        assert_eq!(stripes[2].dec_max, r.dec_max);
        for w in stripes.windows(2) {
            assert_eq!(w[0].dec_max, w[1].dec_min);
        }
        let total: f64 = stripes.iter().map(|s| s.area_deg2()).sum();
        assert!((total - r.area_deg2()).abs() < 1e-9);
    }

    #[test]
    fn figure6_duplication_accounting() {
        // Figure 6: partitioning P (13 x 8) into 3 servers with 1 deg of
        // buffer duplicates 4 stripes of 13 deg^2: the middle server carries
        // two buffers, the outer servers one each.
        let p = SkyRegion::paper_import_104();
        let parts = p.partition_with_buffers(3, 1.0);
        let native_area: f64 = parts.iter().map(|(n, _)| n.area_deg2()).sum();
        let buffered_area: f64 = parts.iter().map(|(_, b)| b.area_deg2()).sum();
        assert!((native_area - 104.0).abs() < 1e-9);
        assert!(
            (buffered_area - native_area - 4.0 * 13.0).abs() < 1e-9,
            "duplicated area should be 4 x 13 deg^2, got {}",
            buffered_area - native_area
        );
        // Middle partition is buffered on both sides.
        assert!((parts[1].1.dec_span() - (p.dec_span() / 3.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn partition_buffers_stay_within_survey() {
        let p = SkyRegion::paper_import_104();
        for (native, buffered) in p.partition_with_buffers(3, 1.0) {
            assert!(buffered.dec_min >= p.dec_min - 1e-9);
            assert!(buffered.dec_max <= p.dec_max + 1e-9);
            assert!(buffered.intersect(&native) == Some(native));
        }
    }

    #[test]
    #[should_panic(expected = "inverted region")]
    fn inverted_region_panics() {
        SkyRegion::new(10.0, 5.0, 0.0, 1.0);
    }
}
