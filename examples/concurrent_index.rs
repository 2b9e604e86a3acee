//! A realistic scenario: a concurrent event index.
//!
//! Four producer threads ingest events (sequence number → payload id)
//! into a lock-free skip list while two consumer threads poll for
//! recent events and an expiry thread trims old ones — the mixed
//! insert/search/delete pattern the paper's introduction motivates,
//! with no locks anywhere.
//!
//! The payloads themselves live in a second structure chosen for its
//! access pattern: payload id → blob is pure point ops (no ordering,
//! no scans), so it goes in `lf-map`'s bucketed hash map, while the
//! sequence index — which the expiry thread trims *in order* — stays
//! in the skip list.
//!
//! ```sh
//! cargo run --example concurrent_index
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use lockfree_lists::map::BucketMap;
use lockfree_lists::{MapHandle, SkipList};

const EVENTS_PER_PRODUCER: u64 = 5_000;
const PRODUCERS: u64 = 4;
const RETENTION: u64 = 2_000;

fn main() {
    let index: Arc<SkipList<u64, u64>> = Arc::new(SkipList::new());
    // Payload store: point lookups by payload id only, so a hashed
    // bucket map — every op touches one short chain, never a tower.
    let payloads: Arc<BucketMap<u64, u64>> = Arc::new(BucketMap::new(64));
    let next_seq = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));

    let found = Arc::new(AtomicU64::new(0));
    let missed = Arc::new(AtomicU64::new(0));
    let expired = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Producers: claim a sequence number, index the event.
        for p in 0..PRODUCERS {
            let index = index.clone();
            let payloads = payloads.clone();
            let next_seq = next_seq.clone();
            s.spawn(move || {
                let h = index.handle();
                let ph = payloads.handle();
                for i in 0..EVENTS_PER_PRODUCER {
                    let seq = next_seq.fetch_add(1, Ordering::SeqCst);
                    let payload_id = p * 1_000_000 + i;
                    // Publish the payload first, then index it: a
                    // consumer that finds the sequence number can
                    // always resolve its payload.
                    ph.insert(payload_id, seq).expect("payload ids are unique");
                    h.insert(seq, payload_id)
                        .expect("sequence numbers are unique");
                }
            });
        }

        // Consumers: sample recent sequence numbers.
        for _ in 0..2 {
            let index = index.clone();
            let next_seq = next_seq.clone();
            let done = done.clone();
            let found = found.clone();
            let missed = missed.clone();
            let payloads = payloads.clone();
            s.spawn(move || {
                let h = index.handle();
                let ph = payloads.handle();
                let mut probe = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let hi = next_seq.load(Ordering::SeqCst);
                    if hi == 0 {
                        continue;
                    }
                    probe = (probe * 6364136223846793005).wrapping_add(1442695040888963407);
                    let seq = probe % hi;
                    // Index hit → resolve the payload by point lookup.
                    // The expiry thread may trim `seq` between the two
                    // lookups, so a vanished payload is a miss (expired
                    // mid-probe), not an error.
                    if let Some(payload_id) = h.get(&seq) {
                        if ph.get(&payload_id).is_some() {
                            found.fetch_add(1, Ordering::SeqCst);
                        } else {
                            missed.fetch_add(1, Ordering::SeqCst);
                        }
                    } else {
                        missed.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }

        // Expiry: keep only the most recent RETENTION events.
        {
            let index = index.clone();
            let payloads = payloads.clone();
            let next_seq = next_seq.clone();
            let done = done.clone();
            let expired = expired.clone();
            s.spawn(move || {
                let h = index.handle();
                let ph = payloads.handle();
                let mut low_water = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let hi = next_seq.load(Ordering::SeqCst);
                    while low_water + RETENTION < hi {
                        // Unindex first, then drop the payload — the
                        // mirror of the producers' publish order.
                        if let Some(payload_id) = h.remove(&low_water) {
                            ph.remove(&payload_id);
                            expired.fetch_add(1, Ordering::SeqCst);
                        }
                        low_water += 1;
                    }
                    std::thread::yield_now();
                }
            });
        }

        // Wait for producers (the first PRODUCERS spawned threads) by
        // watching the sequence counter, then stop the pollers.
        while next_seq.load(Ordering::SeqCst) < PRODUCERS * EVENTS_PER_PRODUCER {
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
    });

    let total = PRODUCERS * EVENTS_PER_PRODUCER;
    println!("ingested        : {total}");
    println!("expired         : {}", expired.load(Ordering::SeqCst));
    println!("still indexed   : {}", index.len());
    println!("payloads stored : {}", payloads.len());
    println!(
        "consumer probes : {} hits, {} misses",
        found.load(Ordering::SeqCst),
        missed.load(Ordering::SeqCst)
    );

    // Sanity: every retained event is readable; expired + retained =
    // total; the payload store mirrors the index exactly (every expiry
    // removed both halves).
    let h = index.handle();
    let retained = h.iter().count() as u64;
    assert_eq!(retained, index.len() as u64);
    assert_eq!(expired.load(Ordering::SeqCst) + retained, total);
    assert_eq!(payloads.len(), index.len());
    let ph = payloads.handle();
    assert_eq!(ph.iter().count(), payloads.len());
    index.validate_quiescent();
    payloads.validate_quiescent();
    println!("final structural validation: OK");
}
