//! Property-based tests for the mixed-granularity page table and address
//! space: random map/unmap/split/collapse/madvise sequences must keep the
//! mapping bijective per VA, RSS accounting exact, and translations
//! consistent.

// Requires the external `proptest` crate; see the crate's Cargo.toml for
// how to re-enable. Default builds must work offline.
#![cfg(feature = "proptest")]
use hawkeye_mem::Pfn;
use hawkeye_vm::{AddressSpace, Hvpn, PageSize, VmaKind, Vpn};
use proptest::prelude::*;
use std::collections::BTreeMap;

const REGIONS: u64 = 8;

#[derive(Debug, Clone)]
enum Op {
    MapBase { slot: u64 },
    MapHuge { region: u64 },
    UnmapBase { slot: u64 },
    SplitHuge { region: u64 },
    Madvise { start: u64, len: u64 },
    Access { slot: u64, write: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let pages = REGIONS * 512;
    prop_oneof![
        (0..pages).prop_map(|slot| Op::MapBase { slot }),
        (0..REGIONS).prop_map(|region| Op::MapHuge { region }),
        (0..pages).prop_map(|slot| Op::UnmapBase { slot }),
        (0..REGIONS).prop_map(|region| Op::SplitHuge { region }),
        (0..pages, 1u64..600).prop_map(|(start, len)| Op::Madvise { start, len }),
        (0..pages, any::<bool>()).prop_map(|(slot, write)| Op::Access { slot, write }),
    ]
}

/// A reference model: which base pages are resident, via which granularity.
#[derive(Default)]
struct Model {
    /// vpn -> (pfn, huge?)
    mapped: BTreeMap<u64, (u64, bool)>,
}

impl Model {
    fn rss(&self) -> u64 {
        self.mapped.len() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_ops_agree_with_reference_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut space = AddressSpace::new();
        space.mmap(Vpn(0), REGIONS * 512, VmaKind::Anon).unwrap();
        let mut model = Model::default();
        let mut next_pfn = 1_000_000u64; // fake frames, distinct per mapping

        for op in ops {
            match op {
                Op::MapBase { slot } => {
                    let vpn = Vpn(slot);
                    let res = space.map_base(vpn, Pfn(next_pfn));
                    if model.mapped.contains_key(&slot)
                        || model.mapped.contains_key(&(slot / 512 * 512))
                            && model.mapped.get(&(slot / 512 * 512)).map(|m| m.1) == Some(true)
                    {
                        prop_assert!(res.is_err(), "double map must fail at {vpn}");
                    } else if res.is_ok() {
                        model.mapped.insert(slot, (next_pfn, false));
                        next_pfn += 1;
                    }
                }
                Op::MapHuge { region } => {
                    let hvpn = Hvpn(region);
                    let base = region * 512;
                    let occupied = (base..base + 512).any(|v| model.mapped.contains_key(&v));
                    let res = space.map_huge(hvpn, Pfn(next_pfn * 512 & !511));
                    if occupied {
                        prop_assert!(res.is_err(), "huge map over mappings must fail");
                    } else if res.is_ok() {
                        let hpfn = next_pfn * 512 & !511;
                        for i in 0..512 {
                            model.mapped.insert(base + i, (hpfn + i, true));
                        }
                        next_pfn += 1;
                    }
                }
                Op::UnmapBase { slot } => {
                    let res = space.unmap_base(Vpn(slot));
                    match model.mapped.get(&slot) {
                        Some((_, false)) => {
                            prop_assert!(res.is_ok());
                            model.mapped.remove(&slot);
                        }
                        _ => prop_assert!(res.is_err(), "unmap of {slot} must fail"),
                    }
                }
                Op::SplitHuge { region } => {
                    let base = region * 512;
                    let is_huge = model.mapped.get(&base).map(|m| m.1) == Some(true);
                    let res = space.split_huge(Hvpn(region));
                    prop_assert_eq!(res.is_ok(), is_huge);
                    if is_huge {
                        for i in 0..512 {
                            if let Some(e) = model.mapped.get_mut(&(base + i)) {
                                e.1 = false;
                            }
                        }
                    }
                }
                Op::Madvise { start, len } => {
                    let end = (start + len).min(REGIONS * 512);
                    let freed = space.madvise_dontneed(Vpn(start), end.saturating_sub(start));
                    // Count released base pages in the model.
                    let mut expect = 0;
                    for v in start..end {
                        if model.mapped.remove(&v).is_some() {
                            expect += 1;
                        }
                    }
                    let got: u64 =
                        freed.iter().map(|f| f.size.base_pages()).sum();
                    prop_assert_eq!(got, expect, "madvise released wrong amount");
                    // Straddled huge mappings were split: sync the model's
                    // granularity flags (contents unchanged).
                    for v in (start / 512 * 512)..((end + 511) / 512 * 512).min(REGIONS * 512) {
                        if let Some(e) = model.mapped.get_mut(&v) {
                            if space.page_table().huge_entry(Vpn(v).hvpn()).is_none() {
                                e.1 = false;
                            }
                        }
                    }
                }
                Op::Access { slot, write } => {
                    let t = space.access(Vpn(slot), write);
                    match model.mapped.get(&slot) {
                        Some((pfn, huge)) => {
                            let t = t.expect("mapped page must translate");
                            prop_assert_eq!(t.pfn.0, *pfn);
                            prop_assert_eq!(t.size == PageSize::Huge, *huge);
                        }
                        None => prop_assert!(t.is_err(), "unmapped page translated"),
                    }
                }
            }
            // Global invariant: RSS matches the model exactly.
            prop_assert_eq!(space.rss_pages(), model.rss());
        }
    }

    #[test]
    fn sampling_counts_match_recent_accesses(
        touched in proptest::collection::btree_set(0u64..512, 0..200),
    ) {
        let mut space = AddressSpace::new();
        space.mmap(Vpn(0), 512, VmaKind::Anon).unwrap();
        for v in 0..512u64 {
            space.map_base(Vpn(v), Pfn(v)).unwrap();
        }
        // Clear boot-time access bits.
        let _ = space.sample_and_clear_access(Hvpn(0));
        for v in &touched {
            space.access(Vpn(*v), false).unwrap();
        }
        let s = space.sample_and_clear_access(Hvpn(0));
        prop_assert_eq!(s.mapped, 512);
        prop_assert_eq!(s.accessed as usize, touched.len());
        // And the bits were cleared by the sample.
        let s2 = space.sample_and_clear_access(Hvpn(0));
        prop_assert_eq!(s2.accessed, 0);
    }
}
