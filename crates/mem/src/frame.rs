//! Per-frame metadata: the simulator's `struct page` analogue.
//!
//! Each 4 KB physical frame carries its allocation state, a kind (anonymous,
//! file-backed, pinned), an optional reverse-map owner tag (process + virtual
//! page, used by compaction to update page tables when migrating), a
//! movability flag, and the page-content tag from [`crate::content`].

use crate::content::PageContent;
use std::fmt;

/// What an allocated frame is used for. Determines movability defaults and
/// which free list (zero / non-zero) should service it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrameKind {
    /// Anonymous user memory (the only kind Linux THP backs with huge
    /// pages). Movable by compaction unless part of a huge mapping.
    #[default]
    Anon,
    /// File-cache page. Reclaimable, movable.
    File,
    /// Pinned/unmovable allocation (kernel metadata, DMA, ...). The
    /// fragmentation antagonist uses these to pin scattered frames.
    Pinned,
}

/// Reverse-map entry: which process/virtual page an allocated frame backs.
///
/// `pid` is the owning process id; `vpn` the base-page virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerTag {
    /// Owning process id.
    pub pid: u32,
    /// Virtual page number (base-page granularity) this frame backs.
    pub vpn: u64,
}

pub(crate) const NO_LINK: u32 = u32::MAX;
pub(crate) const NOT_FREE_HEAD: u8 = u8::MAX;

/// Allocation state of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameState {
    /// Allocated to a user (or reserved by the kernel during compaction).
    Allocated,
    /// Head of a free buddy block (order recorded in `free_order`).
    FreeHead,
    /// Interior frame of a free buddy block.
    FreeTail,
}

/// Metadata of one physical frame, packed into 20 bytes (the frame table
/// holds one per 4 KB of simulated memory).
///
/// Instances live in [`crate::PhysMemory`]'s frame table and are accessed by
/// [`crate::PhysMemory::frame`] / [`crate::PhysMemory::frame_mut`].
#[derive(Debug, Clone)]
pub struct Frame {
    /// The free-list links `[prev, next]` of a free block's head, or the
    /// owner's vpn as `[low, high]` halves while [`OWNED`] is set. A free
    /// frame has no owner and an owned frame is never on a free list, so
    /// the two uses never overlap.
    link: [u32; 2],
    /// Owner pid, valid while [`OWNED`] is set.
    pid: u32,
    content_tag: u16,
    pub(crate) state: FrameState,
    /// Valid only when `state == FreeHead`.
    pub(crate) free_order: u8,
    kind: FrameKind,
    /// [`MOVABLE`] | [`OWNED`].
    flags: u8,
}

/// `Frame::flags`: compaction may migrate the frame (unless pinned).
const MOVABLE: u8 = 1;
/// `Frame::flags`: `pid` and `link` hold a reverse-map owner.
const OWNED: u8 = 2;

const _: () = assert!(std::mem::size_of::<Frame>() == 20);

impl Default for Frame {
    fn default() -> Self {
        Frame {
            link: [NO_LINK; 2],
            pid: 0,
            content_tag: PageContent::ZERO_TAG,
            state: FrameState::FreeTail,
            free_order: NOT_FREE_HEAD,
            kind: FrameKind::Anon,
            flags: MOVABLE,
        }
    }
}

impl Frame {
    /// Whether the frame is currently free (head or interior of a free
    /// block).
    pub fn is_free(&self) -> bool {
        matches!(self.state, FrameState::FreeHead | FrameState::FreeTail)
    }

    /// The frame's allocation kind.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Sets the allocation kind.
    pub fn set_kind(&mut self, kind: FrameKind) {
        self.kind = kind;
        if kind == FrameKind::Pinned {
            self.flags &= !MOVABLE;
        }
    }

    /// Reverse-map owner, if the frame backs a user mapping.
    pub fn owner(&self) -> Option<OwnerTag> {
        (self.flags & OWNED != 0).then(|| OwnerTag {
            pid: self.pid,
            vpn: self.link[0] as u64 | (self.link[1] as u64) << 32,
        })
    }

    /// Sets (or clears) the reverse-map owner.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when setting an owner on the head of a free
    /// block, whose free-list links share the owner's storage.
    pub fn set_owner(&mut self, owner: Option<OwnerTag>) {
        match owner {
            Some(o) => {
                debug_assert!(self.state != FrameState::FreeHead, "owner set on a free-list head");
                self.link = [o.vpn as u32, (o.vpn >> 32) as u32];
                self.pid = o.pid;
                self.flags |= OWNED;
            }
            None => self.flags &= !OWNED,
        }
    }

    /// Whether compaction may migrate this frame.
    pub fn is_movable(&self) -> bool {
        self.flags & MOVABLE != 0 && self.kind != FrameKind::Pinned
    }

    /// Marks the frame movable/unmovable (e.g. huge-mapped frames are
    /// unmovable as units; pinned frames are never movable).
    pub fn set_movable(&mut self, movable: bool) {
        if movable {
            self.flags |= MOVABLE;
        } else {
            self.flags &= !MOVABLE;
        }
    }

    /// The frame's content summary.
    pub fn content(&self) -> PageContent {
        PageContent::from_tag(self.content_tag)
    }

    /// Overwrites the content summary (e.g. the workload wrote data, or the
    /// pre-zeroing daemon cleared the page).
    pub fn set_content(&mut self, content: PageContent) {
        self.content_tag = content.to_tag();
    }

    /// Whether the frame's content is all-zero.
    pub fn is_zeroed(&self) -> bool {
        self.content_tag == PageContent::ZERO_TAG
    }

    /// Previous block head on this frame's free list (free heads only).
    pub(crate) fn prev(&self) -> u32 {
        self.link[0]
    }

    /// Next block head on this frame's free list (free heads only).
    pub(crate) fn next(&self) -> u32 {
        self.link[1]
    }

    pub(crate) fn set_prev(&mut self, prev: u32) {
        self.link[0] = prev;
    }

    pub(crate) fn set_next(&mut self, next: u32) {
        self.link[1] = next;
    }

    /// Clears the user metadata of a frame being freed.
    pub(crate) fn reset_user_meta(&mut self) {
        self.kind = FrameKind::Anon;
        self.flags = MOVABLE;
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.state {
            FrameState::Allocated => "alloc",
            FrameState::FreeHead => "free-head",
            FrameState::FreeTail => "free",
        };
        write!(f, "[{state} {:?} {}]", self.kind, self.content())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_frame_is_free_and_zeroed() {
        let f = Frame::default();
        assert!(f.is_free());
        assert!(f.is_zeroed());
        assert!(f.is_movable());
        assert_eq!(f.owner(), None);
        assert_eq!(f.kind(), FrameKind::Anon);
    }

    #[test]
    fn pinned_frames_are_unmovable() {
        let mut f = Frame::default();
        f.set_kind(FrameKind::Pinned);
        assert!(!f.is_movable());
        // and cannot be made movable again while pinned
        f.set_movable(true);
        assert!(!f.is_movable());
    }

    #[test]
    fn content_round_trip() {
        let mut f = Frame::default();
        f.set_content(PageContent::non_zero(17));
        assert!(!f.is_zeroed());
        assert_eq!(f.content(), PageContent::non_zero(17));
        f.set_content(PageContent::Zero);
        assert!(f.is_zeroed());
    }

    #[test]
    fn owner_tag_set_and_clear() {
        let mut f = Frame::default();
        f.set_owner(Some(OwnerTag { pid: 3, vpn: 42 }));
        assert_eq!(f.owner().unwrap().vpn, 42);
        f.set_owner(None);
        assert!(f.owner().is_none());
    }

    #[test]
    fn owner_keeps_a_full_width_vpn_and_flags_stay_independent() {
        let mut f = Frame { state: FrameState::Allocated, ..Frame::default() };
        f.set_movable(false);
        let tag = OwnerTag { pid: u32::MAX - 1, vpn: (7 << 40) | 0xdead_beef };
        f.set_owner(Some(tag));
        assert_eq!(f.owner(), Some(tag));
        assert!(!f.is_movable(), "setting an owner leaves movability alone");
        f.set_movable(true);
        assert_eq!(f.owner(), Some(tag), "movability leaves the owner alone");
        f.reset_user_meta();
        assert_eq!(f.owner(), None);
        assert!(f.is_movable());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Frame::default()).is_empty());
    }
}
