//! Fig. 4: the `access_map` bucket structure and HawkEye-G's global
//! promotion order.
//!
//! Reconstructs the paper's example: three processes A, B, C with regions
//! filed into coverage buckets; HawkEye-G promotes from the globally
//! highest non-empty bucket with round-robin among tied processes,
//! producing the order `A1,B1,C1,C2,B2,C3,C4,B3,B4,A2,C5,A3`.

use crate::{run_scenarios, Json, Report, Row, RunCfg, Scenario};
use hawkeye_core::AccessMap;
use hawkeye_vm::Hvpn;
use std::collections::BTreeMap;

const PAPER_ORDER: &str = "A1,B1,C1,C2,B2,C3,C4,B3,B4,A2,C5,A3";

fn build_example() -> (BTreeMap<char, AccessMap>, BTreeMap<(char, u64), String>) {
    // Region ids encode (process, label): A1 = region 1 of A, etc.
    // Coverage values place them in the paper's buckets.
    let mut maps: BTreeMap<char, AccessMap> = BTreeMap::new();
    let mut label: BTreeMap<(char, u64), String> = BTreeMap::new();
    let add = |maps: &mut BTreeMap<char, AccessMap>,
               label: &mut BTreeMap<(char, u64), String>,
               p: char,
               idx: u64,
               cov: u32| {
        let map = maps.entry(p).or_insert_with(|| AccessMap::new(1.0));
        map.update(Hvpn(idx), cov);
        label.insert((p, idx), format!("{p}{idx}"));
    };
    // Insertion order = recency; within a bucket the head is most recent.
    // Bucket 9 (450+): A1, B1, C2 then C1 (C1 most recent -> head).
    add(&mut maps, &mut label, 'A', 1, 480);
    add(&mut maps, &mut label, 'B', 1, 470);
    add(&mut maps, &mut label, 'C', 2, 460);
    add(&mut maps, &mut label, 'C', 1, 490);
    // Bucket 7: B2, C4 then C3 at head.
    add(&mut maps, &mut label, 'B', 2, 380);
    add(&mut maps, &mut label, 'C', 4, 360);
    add(&mut maps, &mut label, 'C', 3, 390);
    // Bucket 5: B4 then B3 at head.
    add(&mut maps, &mut label, 'B', 4, 260);
    add(&mut maps, &mut label, 'B', 3, 280);
    // Bucket 3: A2, C5.
    add(&mut maps, &mut label, 'A', 2, 180);
    add(&mut maps, &mut label, 'C', 5, 160);
    // Bucket 1: A3.
    add(&mut maps, &mut label, 'A', 3, 60);
    (maps, label)
}

fn scenario() -> Scenario<Row> {
    Scenario::new("access-map example", || {
        let (mut maps, label) = build_example();
        let mut text =
            String::from("== Fig. 4: access_map state (bucket -> regions, head first) ==\n");
        for (p, map) in &maps {
            let mut per_bucket: BTreeMap<usize, Vec<String>> = BTreeMap::new();
            for (h, ema) in map.iter() {
                let bucket = ((ema / 50.0) as usize).min(9);
                per_bucket
                    .entry(bucket)
                    .or_default()
                    .push(label[&(*p, h.0)].clone());
            }
            let desc: Vec<String> = per_bucket
                .iter()
                .rev()
                .map(|(b, rs)| format!("b{b}:[{}]", rs.join(",")))
                .collect();
            text.push_str(&format!("process {p}: {}\n", desc.join(" ")));
        }

        // HawkEye-G global order: highest non-empty bucket across
        // processes, round-robin among ties, head-first within a process.
        let mut order = Vec::new();
        let mut last: char = '\0';
        let mut last_bucket = usize::MAX;
        loop {
            let mut best: Option<usize> = None;
            let mut holders: Vec<char> = Vec::new();
            for (p, map) in &maps {
                let Some(idx) = map.highest_index() else {
                    continue;
                };
                match best {
                    Some(b) if idx < b => {}
                    Some(b) if idx == b => holders.push(*p),
                    _ => {
                        best = Some(idx);
                        holders = vec![*p];
                    }
                }
            }
            if holders.is_empty() {
                break;
            }
            // The rotation restarts whenever the global bucket level drops.
            if best != Some(last_bucket) {
                last = '\0';
                last_bucket = best.expect("non-empty holders imply a bucket");
            }
            let p = holders
                .iter()
                .copied()
                .find(|p| *p > last)
                .unwrap_or(holders[0]);
            last = p;
            let map = maps.get_mut(&p).expect("holder");
            let h = map.pop_best(0.0).expect("non-empty");
            order.push(label[&(p, h.0)].clone());
        }
        let joined = order.join(",");
        text.push_str(&format!("\nHawkEye-G promotion order: {joined}\n"));
        text.push_str(&format!("(paper example:            {PAPER_ORDER})\n"));
        Row::new(vec![])
            .with_json(Json::obj(vec![
                ("promotion_order", Json::str(joined.clone())),
                ("paper_order", Json::str(PAPER_ORDER)),
                ("matches_paper", Json::Bool(joined == PAPER_ORDER)),
            ]))
            .line(text)
    })
}

/// Builds the `fig4` report: the `access_map` bucket structure and promotion ordering.
pub fn report(run: RunCfg) -> Report {
    let mut report = Report::new(
        "fig4_access_map",
        "Fig. 4: access_map promotion order",
        vec![], // free-text figure, no table
    );
    let rows = report.absorb(run_scenarios(vec![scenario()], run.threads, run.trace));
    report.extend(rows);
    report
}
