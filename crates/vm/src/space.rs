//! Per-process address space: VMAs plus the page table.
//!
//! `AddressSpace` enforces the VMA discipline (mappings only inside areas,
//! huge mappings only inside huge-eligible areas that cover the whole
//! region) and implements `madvise(MADV_DONTNEED)`-style range unmapping,
//! which is how the paper's Redis experiment releases memory in phase P2
//! (§2.1) — freed ranges break huge mappings exactly as Linux does.

use crate::error::MapError;
use crate::page_table::{AccessMiss, AccessSample, BaseEntry, HugeEntry, PageTable, Translation};
use crate::types::{Hvpn, PageSize, Vpn};
use crate::vma::{Vma, VmaKind};
use hawkeye_mem::Pfn;
use std::collections::BTreeMap;

/// A mapping released by an unmap operation; the kernel frees the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreedMapping {
    /// First virtual page of the released mapping.
    pub vpn: Vpn,
    /// First frame of the released mapping.
    pub pfn: Pfn,
    /// Granularity (one base page or a whole huge page).
    pub size: PageSize,
    /// Whether the mapping was a shared zero-COW entry (the frame is the
    /// canonical zero page and must *not* be freed).
    pub zero_cow: bool,
}

/// A process's virtual address space.
///
/// # Examples
///
/// ```
/// use hawkeye_vm::{AddressSpace, Vpn, Hvpn, VmaKind};
/// use hawkeye_mem::Pfn;
///
/// let mut space = AddressSpace::new();
/// space.mmap(Vpn(0), 4 * 512, VmaKind::Anon)?;
/// space.map_huge(Hvpn(1), Pfn(512))?;
/// assert_eq!(space.rss_pages(), 512);
/// let freed = space.madvise_dontneed(Vpn(512), 512);
/// assert_eq!(freed.len(), 1);
/// assert_eq!(space.rss_pages(), 0);
/// # Ok::<(), hawkeye_vm::MapError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    vmas: BTreeMap<u64, Vma>,
    pt: PageTable,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an area of `pages` base pages at `start`.
    ///
    /// # Errors
    ///
    /// [`MapError::VmaOverlap`] if the range overlaps an existing area.
    pub fn mmap(&mut self, start: Vpn, pages: u64, kind: VmaKind) -> Result<(), MapError> {
        let vma = Vma::new(start, pages, kind);
        if self.vmas.values().any(|v| v.overlaps(&vma)) {
            return Err(MapError::VmaOverlap { start });
        }
        self.vmas.insert(start.0, vma);
        Ok(())
    }

    /// Removes the area starting exactly at `start`, unmapping everything
    /// inside it. Returns the released mappings.
    ///
    /// # Errors
    ///
    /// [`MapError::NoVma`] if no area starts at `start`.
    pub fn munmap(&mut self, start: Vpn) -> Result<Vec<FreedMapping>, MapError> {
        let vma = self.vmas.remove(&start.0).ok_or(MapError::NoVma { vpn: start })?;
        Ok(self.unmap_range(vma.start(), vma.pages()))
    }

    /// The area containing `vpn`, if any.
    pub fn find_vma(&self, vpn: Vpn) -> Option<&Vma> {
        self.vmas
            .range(..=vpn.0)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(vpn))
    }

    /// Iterates areas in VA order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Read access to the underlying page table.
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Mutable access to the underlying page table (for samplers that
    /// clear accessed bits).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pt
    }

    /// Resident set size in base pages.
    pub fn rss_pages(&self) -> u64 {
        self.pt.rss_pages()
    }

    /// Number of huge mappings.
    pub fn huge_pages(&self) -> u64 {
        self.pt.huge_count()
    }

    /// Translates without setting accessed bits.
    pub fn translate(&self, vpn: Vpn) -> Option<Translation> {
        self.pt.translate(vpn)
    }

    /// Translates an access, setting accessed/dirty bits. An error names
    /// the page fault the caller must take (see [`PageTable::access`]).
    pub fn access(&mut self, vpn: Vpn, write: bool) -> Result<Translation, AccessMiss> {
        self.pt.access(vpn, write)
    }

    /// Maps a base page after VMA validation.
    ///
    /// # Errors
    ///
    /// [`MapError::NoVma`] if no area covers `vpn`;
    /// [`MapError::AlreadyMapped`] if a mapping exists.
    pub fn map_base(&mut self, vpn: Vpn, pfn: Pfn) -> Result<(), MapError> {
        self.find_vma(vpn).ok_or(MapError::NoVma { vpn })?;
        self.pt.map_base(vpn, pfn, false)
    }

    /// Maps a base page as a zero-COW entry (shared canonical zero page).
    ///
    /// # Errors
    ///
    /// Same as [`AddressSpace::map_base`].
    pub fn map_zero_cow(&mut self, vpn: Vpn, zero_pfn: Pfn) -> Result<(), MapError> {
        self.find_vma(vpn).ok_or(MapError::NoVma { vpn })?;
        self.pt.map_base(vpn, zero_pfn, true)
    }

    /// Maps a huge page after validating that a single huge-eligible VMA
    /// covers the whole region.
    ///
    /// # Errors
    ///
    /// [`MapError::RegionNotCovered`] if no huge-eligible area covers the
    /// full region; otherwise as [`PageTable::map_huge`].
    pub fn map_huge(&mut self, hvpn: Hvpn, pfn: Pfn) -> Result<(), MapError> {
        let covered = self
            .find_vma(hvpn.base_vpn())
            .map(|v| v.huge_eligible() && v.covers_region(hvpn))
            .unwrap_or(false);
        if !covered {
            return Err(MapError::RegionNotCovered { hvpn });
        }
        self.pt.map_huge(hvpn, pfn)
    }

    /// Whether a huge-eligible VMA fully covers `hvpn` (promotion
    /// precondition).
    pub fn region_promotable(&self, hvpn: Hvpn) -> bool {
        self.find_vma(hvpn.base_vpn())
            .map(|v| v.huge_eligible() && v.covers_region(hvpn))
            .unwrap_or(false)
    }

    /// Unmaps one base page.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no base mapping exists.
    pub fn unmap_base(&mut self, vpn: Vpn) -> Result<BaseEntry, MapError> {
        self.pt.unmap_base(vpn)
    }

    /// Unmaps one huge region.
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no huge mapping exists.
    pub fn unmap_huge(&mut self, hvpn: Hvpn) -> Result<HugeEntry, MapError> {
        self.pt.unmap_huge(hvpn)
    }

    /// Splits a huge mapping into base mappings (demotion).
    ///
    /// # Errors
    ///
    /// [`MapError::NotMapped`] if no huge mapping exists.
    pub fn split_huge(&mut self, hvpn: Hvpn) -> Result<HugeEntry, MapError> {
        self.pt.split_huge(hvpn)
    }

    /// Samples and clears a region's accessed bits.
    pub fn sample_and_clear_access(&mut self, hvpn: Hvpn) -> AccessSample {
        self.pt.sample_and_clear_access(hvpn)
    }

    /// Clears a region's accessed bits without computing the sample — the
    /// cheap "arm" phase of two-phase access sampling.
    pub fn clear_region_access(&mut self, hvpn: Hvpn) {
        self.pt.clear_region_access(hvpn)
    }

    /// `madvise(MADV_DONTNEED)`: releases all mappings in
    /// `[start, start+pages)`. Huge mappings that straddle the range
    /// boundary are split first (exactly Linux's behaviour: releasing part
    /// of a THP breaks the huge mapping), and the covered constituent
    /// pages are then released.
    ///
    /// Returns the released mappings; the kernel frees the frames (except
    /// shared zero-COW pages, flagged in the result).
    pub fn madvise_dontneed(&mut self, start: Vpn, pages: u64) -> Vec<FreedMapping> {
        self.unmap_range(start, pages)
    }

    fn unmap_range(&mut self, start: Vpn, pages: u64) -> Vec<FreedMapping> {
        let end = Vpn(start.0 + pages);
        let mut freed = Vec::new();
        // Huge mappings intersecting the range.
        let hstart = start.hvpn();
        let hend = Vpn(end.0.saturating_sub(1)).hvpn();
        for h in hstart.0..=hend.0 {
            let hvpn = Hvpn(h);
            if self.pt.huge_entry(hvpn).is_none() {
                continue;
            }
            let fully_inside = hvpn.base_vpn() >= start && Vpn(hvpn.vpn_at(511).0 + 1) <= end;
            if fully_inside {
                let e = self.pt.unmap_huge(hvpn).expect("checked above");
                freed.push(FreedMapping { vpn: hvpn.base_vpn(), pfn: e.pfn, size: PageSize::Huge, zero_cow: false });
            } else {
                // Partially covered: break the huge page, then the base
                // loop below releases the covered constituents.
                self.pt.split_huge(hvpn).expect("checked above");
            }
        }
        // Base mappings inside the range, drained in one allocation-free
        // pass (only intersecting regions are scanned).
        self.pt.take_base_entries_in_range(start, end, |vpn, e| {
            freed.push(FreedMapping { vpn, pfn: e.pfn, size: PageSize::Base, zero_cow: e.zero_cow });
        });
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_anon(pages: u64) -> AddressSpace {
        let mut s = AddressSpace::new();
        s.mmap(Vpn(0), pages, VmaKind::Anon).unwrap();
        s
    }

    #[test]
    fn mmap_rejects_overlap() {
        let mut s = AddressSpace::new();
        s.mmap(Vpn(0), 100, VmaKind::Anon).unwrap();
        assert!(matches!(s.mmap(Vpn(99), 10, VmaKind::Anon), Err(MapError::VmaOverlap { .. })));
        s.mmap(Vpn(100), 10, VmaKind::File).unwrap();
        assert_eq!(s.vmas().count(), 2);
    }

    #[test]
    fn find_vma_picks_correct_area() {
        let mut s = AddressSpace::new();
        s.mmap(Vpn(0), 10, VmaKind::Anon).unwrap();
        s.mmap(Vpn(100), 10, VmaKind::File).unwrap();
        assert_eq!(s.find_vma(Vpn(5)).unwrap().kind(), VmaKind::Anon);
        assert_eq!(s.find_vma(Vpn(105)).unwrap().kind(), VmaKind::File);
        assert!(s.find_vma(Vpn(50)).is_none());
        assert!(s.find_vma(Vpn(110)).is_none());
    }

    #[test]
    fn map_requires_vma() {
        let mut s = space_with_anon(100);
        assert!(s.map_base(Vpn(5), Pfn(1)).is_ok());
        assert!(matches!(s.map_base(Vpn(200), Pfn(2)), Err(MapError::NoVma { .. })));
    }

    #[test]
    fn huge_map_requires_covering_anon_vma() {
        let mut s = AddressSpace::new();
        s.mmap(Vpn(0), 512, VmaKind::Anon).unwrap();
        s.mmap(Vpn(512), 512, VmaKind::File).unwrap();
        s.mmap(Vpn(1024), 100, VmaKind::Anon).unwrap();
        assert!(s.map_huge(Hvpn(0), Pfn(0)).is_ok());
        // File VMA: not eligible.
        assert!(matches!(s.map_huge(Hvpn(1), Pfn(512)), Err(MapError::RegionNotCovered { .. })));
        // Partial VMA: not covered.
        assert!(matches!(s.map_huge(Hvpn(2), Pfn(1024)), Err(MapError::RegionNotCovered { .. })));
        assert!(s.region_promotable(Hvpn(0)));
        assert!(!s.region_promotable(Hvpn(1)));
        assert!(!s.region_promotable(Hvpn(2)));
    }

    #[test]
    fn munmap_releases_mappings() {
        let mut s = space_with_anon(1024);
        s.map_base(Vpn(0), Pfn(1)).unwrap();
        s.map_huge(Hvpn(1), Pfn(512)).unwrap();
        let freed = s.munmap(Vpn(0)).unwrap();
        assert_eq!(freed.len(), 2);
        assert_eq!(s.rss_pages(), 0);
        assert!(s.find_vma(Vpn(0)).is_none());
        assert!(s.munmap(Vpn(0)).is_err());
    }

    #[test]
    fn dontneed_full_huge_page() {
        let mut s = space_with_anon(1024);
        s.map_huge(Hvpn(0), Pfn(0)).unwrap();
        let freed = s.madvise_dontneed(Vpn(0), 512);
        assert_eq!(freed.len(), 1);
        assert_eq!(freed[0].size, PageSize::Huge);
        assert_eq!(s.rss_pages(), 0);
        // VMA still exists: pages can fault back in.
        assert!(s.find_vma(Vpn(0)).is_some());
    }

    #[test]
    fn dontneed_partial_huge_page_splits() {
        let mut s = space_with_anon(1024);
        s.map_huge(Hvpn(0), Pfn(0)).unwrap();
        // Release only the first 100 pages: the huge mapping must break.
        let freed = s.madvise_dontneed(Vpn(0), 100);
        assert_eq!(freed.len(), 100);
        assert!(freed.iter().all(|f| f.size == PageSize::Base));
        // 412 base mappings remain, backed by the huge frame's tail.
        assert_eq!(s.rss_pages(), 412);
        assert_eq!(s.translate(Vpn(100)).unwrap().pfn, Pfn(100));
        assert_eq!(s.translate(Vpn(100)).unwrap().size, PageSize::Base);
        assert!(s.translate(Vpn(99)).is_none());
    }

    #[test]
    fn dontneed_reports_zero_cow() {
        let mut s = space_with_anon(100);
        s.map_zero_cow(Vpn(3), Pfn(0)).unwrap();
        s.map_base(Vpn(4), Pfn(10)).unwrap();
        let freed = s.madvise_dontneed(Vpn(0), 100);
        let zc: Vec<_> = freed.iter().filter(|f| f.zero_cow).collect();
        assert_eq!(zc.len(), 1);
        assert_eq!(zc[0].vpn, Vpn(3));
    }

    #[test]
    fn access_faults_on_unmapped() {
        let mut s = space_with_anon(100);
        assert_eq!(s.access(Vpn(5), false), Err(AccessMiss::Unmapped));
        s.map_base(Vpn(5), Pfn(9)).unwrap();
        assert!(s.access(Vpn(5), false).is_ok());
    }

    #[test]
    fn dontneed_empty_range_is_noop() {
        let mut s = space_with_anon(100);
        s.map_base(Vpn(5), Pfn(9)).unwrap();
        let freed = s.madvise_dontneed(Vpn(50), 0);
        assert!(freed.is_empty());
        assert_eq!(s.rss_pages(), 1);
    }
}
