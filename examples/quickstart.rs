//! Quickstart: the lock-free list and skip list as concurrent maps.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use lockfree_lists::map::BucketMap;
use lockfree_lists::{FrList, MapHandle, SkipList, SkipSet};

fn main() {
    // --- FrList: the paper's §3 linked list -------------------------
    let list = FrList::new();
    let h = list.handle();

    h.insert(3, "three").unwrap();
    h.insert(1, "one").unwrap();
    h.insert(2, "two").unwrap();
    assert_eq!(h.insert(2, "again").unwrap_err(), (2, "again")); // duplicates rejected

    assert_eq!(h.get(&2), Some("two"));
    assert_eq!(h.remove(&2), Some("two"));
    assert!(!h.contains(&2));

    let contents: Vec<(i32, &str)> = h.iter().collect();
    println!("list after ops: {contents:?}");
    assert_eq!(contents, vec![(1, "one"), (3, "three")]);

    // --- SkipList: the paper's §4 dictionary, O(log n) expected -----
    let map = Arc::new(SkipList::new());
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let map = Arc::clone(&map);
            s.spawn(move || {
                let h = map.handle();
                for i in 0..1_000 {
                    h.insert(t * 1_000 + i, i).unwrap();
                }
            });
        }
    });
    assert_eq!(map.len(), 4_000);
    println!(
        "skip list holds {} entries after 4 concurrent writers",
        map.len()
    );

    let h = map.handle();
    assert_eq!(h.get(&2_500), Some(500));

    // --- BucketMap: hashed buckets of FR lists, point ops only ------
    // No ordering: lookups hash to one short chain instead of walking
    // a sorted structure, and `iter` yields entries in arbitrary order
    // under a single pin.
    let index: BucketMap<u64, &str> = BucketMap::new(16);
    let ih = index.handle();
    ih.insert(7, "seven").unwrap();
    ih.insert(1_000_007, "a prime").unwrap();
    assert_eq!(ih.get_with(&7, |v| v.len()), Some(5));
    assert_eq!(ih.remove(&1_000_007), Some("a prime"));
    let mut entries: Vec<(u64, &str)> = ih.iter().collect();
    entries.sort_unstable(); // arbitrary iteration order: sort to assert
    assert_eq!(entries, vec![(7, "seven")]);
    println!(
        "bucket map across {} buckets: {entries:?}",
        index.bucket_count()
    );

    // --- SkipSet: set façade ----------------------------------------
    // Like every structure here, the set is used through a handle:
    // register once per thread (`handle()`), then reuse it.
    let set = SkipSet::new();
    let sh = set.handle();
    assert!(sh.insert("apple"));
    assert!(sh.insert("banana"));
    assert!(!sh.insert("apple"));
    assert!(sh.remove(&"banana"));
    println!("set contains apple: {}", sh.contains(&"apple"));
}
