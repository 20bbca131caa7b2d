//! Memory compaction: migrating movable frames to assemble free huge pages.
//!
//! This is the substrate `khugepaged` relies on when fragmentation is high:
//! Linux compacts memory to create the contiguous 2 MB blocks promotions
//! need. The simulator's compactor scans huge-page-aligned regions,
//! migrates movable base-page frames out of partially-free regions (cheapest
//! regions first), and lets buddy merging reassemble the region into a free
//! huge block.
//!
//! Migration must update the owning process's page table, which lives above
//! this crate — callers supply a `migrate(src, dst) -> bool` callback that
//! performs the remap and may veto the move.

use crate::buddy::{AllocPref, PhysMemory};
use crate::frame::{FrameState, OwnerTag};
use crate::types::{Order, Pfn, BASE_PAGES_PER_HUGE, HUGE_ORDER};
use hawkeye_trace::TraceEvent;

/// Outcome of one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Huge-page-aligned regions examined.
    pub scanned_regions: u64,
    /// Base pages migrated.
    pub migrated_pages: u64,
    /// Regions fully freed into (at least) a huge block.
    pub huge_blocks_freed: u64,
}

#[derive(Debug, Clone, Copy)]
struct RegionSummary {
    base: Pfn,
    movable: u64,
}

/// Runs one compaction pass over `pm`, migrating at most `max_migrations`
/// base pages.
///
/// Regions containing unmovable frames are skipped. For each candidate
/// region (cheapest first), every movable allocated frame is migrated to a
/// destination obtained from the buddy allocator (non-zero list preferred),
/// with `migrate(src, dst, owner)` giving the owner a chance to update its
/// page table (the source frame's reverse-map tag is passed along); a
/// `false` return vetoes the move and abandons that region.
///
/// Returns statistics; `huge_blocks_freed` counts regions that ended fully
/// free (and therefore merged into free huge blocks).
pub fn compact<F>(pm: &mut PhysMemory, max_migrations: u64, mut migrate: F) -> CompactionStats
where
    F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
{
    let mut stats = CompactionStats::default();
    let total = pm.total_frames();
    let mut candidates: Vec<RegionSummary> = Vec::new();
    let mut base = 0u64;
    while base + BASE_PAGES_PER_HUGE <= total {
        stats.scanned_regions += 1;
        let mut movable = 0u64;
        let mut free = 0u64;
        let mut unmovable = false;
        for i in 0..BASE_PAGES_PER_HUGE {
            let f = pm.frame(Pfn(base + i));
            if f.is_free() {
                free += 1;
            } else if f.is_movable() {
                movable += 1;
            } else {
                // One unmovable frame (huge-mapped, pinned, kernel-held)
                // rules the region out; the rest need not be counted.
                unmovable = true;
                break;
            }
        }
        if !unmovable && movable > 0 && free > 0 {
            candidates.push(RegionSummary { base: Pfn(base), movable });
        }
        base += BASE_PAGES_PER_HUGE;
    }
    // Cheapest regions (fewest migrations to liberate a huge block) first.
    candidates.sort_by_key(|r| (r.movable, r.base.0));

    let mut budget = max_migrations;
    for region in candidates {
        if budget < region.movable {
            break;
        }
        if compact_region(pm, region.base, &mut budget, &mut stats, &mut migrate) {
            stats.huge_blocks_freed += 1;
        }
    }
    if stats.migrated_pages > 0 || stats.huge_blocks_freed > 0 {
        pm.trace().emit(
            0,
            TraceEvent::Compact {
                migrated: stats.migrated_pages,
                huge_blocks: stats.huge_blocks_freed,
            },
        );
    }
    stats
}

/// Attempts to fully liberate one region. Returns true if the region ended
/// entirely free.
fn compact_region<F>(
    pm: &mut PhysMemory,
    base: Pfn,
    budget: &mut u64,
    stats: &mut CompactionStats,
    migrate: &mut F,
) -> bool
where
    F: FnMut(Pfn, Pfn, Option<OwnerTag>) -> bool,
{
    // Phase 1: claim the region's free frames so destination allocations
    // cannot land inside the region we are trying to liberate.
    let claimed = claim_free_in_region(pm, base);

    // Phase 2: migrate movable allocated frames out.
    let mut moved: Vec<Pfn> = Vec::new();
    let mut aborted = false;
    for i in 0..BASE_PAGES_PER_HUGE {
        let src = Pfn(base.0 + i);
        if claimed.contains(i) || pm.frame(src).is_free() {
            continue;
        }
        if !pm.frame(src).is_movable() {
            aborted = true;
            break;
        }
        if *budget == 0 {
            // Earlier migrations may have moved extra frames *into* this
            // region, exceeding the scan-time estimate.
            aborted = true;
            break;
        }
        let Ok(dst) = pm.alloc(Order(0), AllocPref::NonZeroed) else {
            aborted = true;
            break;
        };
        let (content, owner, kind) = {
            let f = pm.frame(src);
            (f.content(), f.owner(), f.kind())
        };
        if !migrate(src, dst.pfn, owner) {
            pm.free(dst.pfn, Order(0));
            aborted = true;
            break;
        }
        // Copy page identity to the destination frame.
        {
            let d = pm.frame_mut(dst.pfn);
            d.set_content(content);
            d.set_owner(owner);
            d.set_kind(kind);
            d.set_movable(true);
        }
        moved.push(src);
        stats.migrated_pages += 1;
        *budget -= 1;
    }

    if aborted {
        // Partial progress: release what we touched piecemeal.
        for src in moved {
            // Migrated data now lives at the destination; the source
            // frame's stale contents must not look pre-zeroed.
            pm.frame_mut(src).set_content(crate::content::PageContent::non_zero(0));
            pm.frame_mut(src).set_owner(None);
            pm.free(src, Order(0));
        }
        for i in claimed.offsets() {
            pm.free(Pfn(base.0 + i), Order(0));
        }
        return false;
    }
    // Phase 3 (success): every frame in the region is now kernel-held
    // (claimed or migrated-out source); free the region as one huge block
    // so it enters the free lists whole regardless of mixed zero-ness.
    for src in moved {
        pm.frame_mut(src).set_content(crate::content::PageContent::non_zero(0));
        pm.frame_mut(src).set_owner(None);
    }
    pm.free(base, HUGE_ORDER);
    true
}

/// One bit per base page of a huge region: the frames
/// [`claim_free_in_region`] took off the free lists.
#[derive(Debug, Default)]
struct RegionMask([u64; (BASE_PAGES_PER_HUGE / 64) as usize]);

impl RegionMask {
    fn set(&mut self, offset: u64) {
        self.0[(offset / 64) as usize] |= 1 << (offset % 64);
    }

    fn contains(&self, offset: u64) -> bool {
        self.0[(offset / 64) as usize] & (1 << (offset % 64)) != 0
    }

    /// The set offsets in ascending order.
    fn offsets(&self) -> impl Iterator<Item = u64> + '_ {
        (0..BASE_PAGES_PER_HUGE).filter(|&i| self.contains(i))
    }
}

/// Removes every free frame of the region from the free lists and marks it
/// kernel-claimed (allocated, unmovable). Returns the claimed offsets.
fn claim_free_in_region(pm: &mut PhysMemory, base: Pfn) -> RegionMask {
    let mut claimed = RegionMask::default();
    let region_end = base.0 + BASE_PAGES_PER_HUGE;
    let mut i = base.0;
    while i < region_end {
        let pfn = Pfn(i);
        if !pm.frame(pfn).is_free() {
            i += 1;
            continue;
        }
        // Find the head/order of the free block containing `pfn`.
        let (head, order) = find_free_block(pm, pfn).expect("free frame must be in a block");
        let listz = pm.block_is_zeroed(head, order) as usize;
        pm.claim_remove(head, order, listz);
        // Re-insert any part of the block outside the region (an order-10
        // block spans two huge regions).
        let block_end = head.0 + order.pages();
        for p in head.0.max(base.0)..block_end.min(region_end) {
            pm.claim_mark(Pfn(p));
            claimed.set(p - base.0);
        }
        // Outside portions (before/after the region) go back to the lists
        // as order-0 frames; merging restores larger blocks.
        for p in head.0..block_end {
            if p < base.0 || p >= region_end {
                pm.claim_reinsert(Pfn(p));
            }
        }
        i = block_end.max(i + 1);
    }
    claimed
}

fn find_free_block(pm: &PhysMemory, pfn: Pfn) -> Option<(Pfn, Order)> {
    for o in 0..=crate::types::MAX_ORDER.0 {
        let order = Order(o);
        let head = pfn.block_base(order);
        let f = pm.frame(head);
        if f.state == FrameState::FreeHead && f.free_order == o {
            return Some((head, order));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buddy::AllocPref;
    use crate::content::PageContent;
    use crate::frame::{FrameKind, OwnerTag};
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Builds memory where every huge region has a few scattered movable
    /// allocations, so no free huge block exists.
    fn fragmented_memory(frames: u64) -> (PhysMemory, Vec<Pfn>) {
        let mut pm = PhysMemory::new(frames);
        let mut all = Vec::new();
        while let Ok(a) = pm.alloc(Order(0), AllocPref::Zeroed) {
            all.push(a.pfn);
        }
        let mut kept = Vec::new();
        for pfn in all {
            // Keep one page out of every 64 allocated; free the rest.
            if pfn.0 % 64 == 0 {
                let f = pm.frame_mut(pfn);
                f.set_owner(Some(OwnerTag { pid: 1, vpn: pfn.0 }));
                f.set_content(PageContent::non_zero(3));
                kept.push(pfn);
            } else {
                pm.free(pfn, Order(0));
            }
        }
        (pm, kept)
    }

    #[test]
    fn compaction_creates_huge_blocks() {
        let (mut pm, kept) = fragmented_memory(4096);
        assert!(pm.largest_free_order().unwrap() < HUGE_ORDER, "setup: fragmented");
        let mut remaps = Vec::new();
        let stats = compact(&mut pm, u64::MAX, |src, dst, _owner| {
            remaps.push((src, dst));
            true
        });
        assert!(stats.huge_blocks_freed > 0, "no huge blocks created: {stats:?}");
        assert_eq!(stats.migrated_pages as usize, remaps.len());
        assert!(pm.largest_free_order().unwrap() >= HUGE_ORDER);
        pm.check_invariants();
        // Every kept page still exists somewhere with its content intact
        // (either unmigrated or at its migration destination).
        let mut live = 0;
        for pfn in 0..pm.total_frames() {
            let f = pm.frame(Pfn(pfn));
            if !f.is_free() && f.owner().map(|o| o.pid) == Some(1) {
                assert_eq!(f.content(), PageContent::non_zero(3));
                live += 1;
            }
        }
        assert_eq!(live, kept.len());
    }

    #[test]
    fn budget_limits_migrations() {
        let (mut pm, _) = fragmented_memory(4096);
        let stats = compact(&mut pm, 5, |_, _, _| true);
        assert!(stats.migrated_pages <= 5, "{stats:?}");
        pm.check_invariants();
    }

    #[test]
    fn unmovable_regions_are_skipped() {
        let mut pm = PhysMemory::new(2048);
        // Pin one page in every region.
        let mut pins = Vec::new();
        for _ in 0..4 {
            let a = pm.alloc(Order(0), AllocPref::Zeroed).unwrap();
            pm.frame_mut(a.pfn).set_kind(FrameKind::Pinned);
            pins.push(a.pfn);
        }
        // (allocator serves them from the same region, so spread manually:
        // allocate big chunks to force later regions)
        let stats = compact(&mut pm, u64::MAX, |_, _, _| true);
        assert_eq!(stats.migrated_pages, 0, "nothing movable to migrate");
        pm.check_invariants();
    }

    #[test]
    fn veto_aborts_region_but_preserves_memory() {
        let (mut pm, kept) = fragmented_memory(2048);
        let before = pm.allocated_pages();
        let stats = compact(&mut pm, u64::MAX, |_, _, _| false);
        assert_eq!(stats.migrated_pages, 0);
        assert_eq!(stats.huge_blocks_freed, 0);
        assert_eq!(pm.allocated_pages(), before);
        pm.check_invariants();
        let _ = kept;
    }

    const REGIONS: u64 = 8;
    /// Region 2 carries a pinned frame in its middle.
    const PINNED_REGION: u64 = 2;

    fn content_of(vpn: u64) -> PageContent {
        PageContent::non_zero(1 + (vpn % 4000) as u16)
    }

    /// Seeded memory of [`REGIONS`] huge regions: regions 0 and 1 form one
    /// free order-10 block; the pinned region and regions 3.. hold owned
    /// movable pages interleaved with free frames at seeded densities.
    /// Returns the memory and the live owned pages (`pfn -> vpn`).
    fn seeded_memory(seed: u64) -> (PhysMemory, BTreeMap<Pfn, u64>) {
        let mut pm = PhysMemory::new(REGIONS * BASE_PAGES_PER_HUGE);
        let mut all = Vec::new();
        while let Ok(a) = pm.alloc(Order(0), AllocPref::Zeroed) {
            all.push(a.pfn);
        }
        all.sort();
        let mut rng = SplitMix64::new(seed);
        let mut live = BTreeMap::new();
        for pfn in all {
            let region = pfn.0 / BASE_PAGES_PER_HUGE;
            let offset = pfn.0 % BASE_PAGES_PER_HUGE;
            let keep_one_in = 2 + region % 4;
            if region == PINNED_REGION && offset == BASE_PAGES_PER_HUGE / 2 {
                pm.frame_mut(pfn).set_kind(FrameKind::Pinned);
            } else if region >= PINNED_REGION && rng.below(keep_one_in) == 0 {
                let vpn = 10_000 + pfn.0;
                let f = pm.frame_mut(pfn);
                f.set_owner(Some(OwnerTag { pid: 1, vpn }));
                f.set_content(content_of(vpn));
                live.insert(pfn, vpn);
            } else {
                pm.free(pfn, Order(0));
            }
        }
        (pm, live)
    }

    /// Compacts seeded memory with a callback that vetoes its `veto_at`-th
    /// call, checking every migration against a model of the live pages.
    fn compact_with_veto(seed: u64, veto_at: u64) {
        let (mut pm, mut live) = seeded_memory(seed);
        assert_eq!(pm.largest_free_order(), Some(crate::types::MAX_ORDER), "setup: order-10 block");
        let pinned = Pfn(PINNED_REGION * BASE_PAGES_PER_HUGE + BASE_PAGES_PER_HUGE / 2);
        let mut calls = 0u64;
        let mut moved = 0u64;
        let stats = compact(&mut pm, u64::MAX, |src, dst, owner| {
            calls += 1;
            // A frame free when its region was claimed is kernel-held and
            // never live; only owned pages may reach the callback.
            let vpn = *live.get(&src).unwrap_or_else(|| panic!("{src} is not a live page"));
            assert_eq!(owner, Some(OwnerTag { pid: 1, vpn }));
            assert_ne!(src.block_base(HUGE_ORDER), pinned.block_base(HUGE_ORDER));
            assert_ne!(src.block_base(HUGE_ORDER), dst.block_base(HUGE_ORDER));
            assert!(!live.contains_key(&dst), "destination {dst} already live");
            if calls == veto_at {
                return false;
            }
            live.remove(&src);
            live.insert(dst, vpn);
            moved += 1;
            true
        });
        pm.check_invariants();
        assert_eq!(stats.scanned_regions, REGIONS, "the pinned region is still scanned");
        assert_eq!(stats.migrated_pages, moved);
        assert!(stats.huge_blocks_freed > 0, "{stats:?}");
        // Every claimed frame went back: only live pages and the pin stay
        // allocated.
        assert_eq!(pm.allocated_pages(), live.len() as u64 + 1);
        assert!(!pm.frame(pinned).is_free());
        for (&pfn, &vpn) in &live {
            let f = pm.frame(pfn);
            assert!(!f.is_free(), "{pfn} freed under a live page");
            assert_eq!(f.owner(), Some(OwnerTag { pid: 1, vpn }));
            assert_eq!(f.content(), content_of(vpn));
        }
    }

    #[test]
    fn compaction_migrates_only_live_pages_around_claims_and_vetoes() {
        for seed in 1..=3 {
            for veto_at in [1, 7, 90, 400, u64::MAX] {
                compact_with_veto(seed, veto_at);
            }
        }
    }

    #[test]
    fn claim_splits_a_straddling_order10_block() {
        let (mut pm, _) = seeded_memory(1);
        let free_before = pm.free_pages();
        // Region 1 is the upper half of the free order-10 block headed at
        // pfn 0: claiming it hands region 0 back frame by frame.
        let base = Pfn(BASE_PAGES_PER_HUGE);
        let claimed = claim_free_in_region(&mut pm, base);
        assert_eq!(claimed.offsets().count() as u64, BASE_PAGES_PER_HUGE);
        assert_eq!(pm.free_pages(), free_before - BASE_PAGES_PER_HUGE);
        for i in 0..BASE_PAGES_PER_HUGE {
            assert!(pm.frame(Pfn(i)).is_free(), "outside half reinserted");
            assert!(!pm.frame(Pfn(base.0 + i)).is_movable(), "claimed frames are kernel-held");
        }
        pm.check_invariants();
        for i in claimed.offsets() {
            pm.free(Pfn(base.0 + i), Order(0));
        }
        pm.check_invariants();
        assert_eq!(pm.free_pages(), free_before);
        assert_eq!(pm.largest_free_order(), Some(crate::types::MAX_ORDER), "merged back whole");
    }

    #[test]
    fn migration_updates_callback_with_valid_frames() {
        let (mut pm, _) = fragmented_memory(2048);
        compact(&mut pm, u64::MAX, |src, dst, _owner| {
            assert_ne!(src, dst);
            assert_ne!(src.block_base(HUGE_ORDER), dst.block_base(HUGE_ORDER),
                "destination must be outside the source region");
            true
        });
        pm.check_invariants();
    }
}
