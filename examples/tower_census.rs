//! Tower-height census of a concurrently built skip list (paper §4).
//!
//! Builds a skip list from four threads under churn, then prints the
//! tower height histogram next to the ideal geometric(1/2) — the
//! distribution the paper argues is approximately preserved despite
//! interrupted constructions.
//!
//! It also checks the result: the quiescent list must pass
//! `validate_quiescent`, and the mean tower height must lie in
//! [1.9, 2.1]; otherwise the example exits non-zero (CI runs it).
//!
//! ```sh
//! cargo run --release --example tower_census
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use lockfree_lists::{MapHandle, SkipList};

fn main() -> ExitCode {
    const KEYS: u64 = 20_000;
    let sl: Arc<SkipList<u64, u64>> = Arc::new(SkipList::new());

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sl = sl.clone();
            s.spawn(move || {
                let h = sl.handle();
                let per = KEYS / 4;
                for i in 0..per {
                    let k = t * per + i;
                    h.insert(k, k).unwrap();
                    // Sprinkle deletions so some constructions race
                    // with removals of their own root.
                    if i % 7 == 0 {
                        let _ = h.remove(&(k / 2));
                    }
                }
            });
        }
    });

    sl.validate_quiescent();
    let heights = sl.tower_heights();
    let total = heights.len() as f64;
    let max_h = heights.iter().copied().max().unwrap_or(1);
    let mut counts = vec![0u64; max_h + 1];
    for h in &heights {
        counts[*h] += 1;
    }

    println!("{} towers, max height {max_h}", heights.len());
    println!(
        "{:>6} {:>8} {:>10} {:>10}  histogram",
        "height", "towers", "observed", "geometric"
    );
    for (h, &count) in counts.iter().enumerate().skip(1) {
        let obs = count as f64 / total;
        let exp = 0.5f64.powi(h as i32);
        let bar = "#".repeat((obs * 120.0).round() as usize);
        println!("{h:>6} {count:>8} {obs:>10.4} {exp:>10.4}  {bar}");
    }
    let mean: f64 = heights.iter().map(|&h| h as f64).sum::<f64>() / total;
    println!("mean height {mean:.3} (ideal 2.0)");
    if !(1.9..=2.1).contains(&mean) {
        eprintln!("mean tower height {mean:.3} is outside [1.9, 2.1]");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
