//! The two storage tiers behind one face, so every front and the
//! ledger are written once. Only public functions of `lf-shard` and
//! `lf-map` are called.

use std::ops::Bound;

use lf_async::AsyncBackend;
use lf_map::BucketMap;
use lf_reclaim::{Ebr, Reclaim};
use lf_shard::{ShardedHandle, ShardedMap, ShardedMapHandle, ShardedSkipList};

use crate::gen::{prefilled, value, Bytes, Cmd, KeyTable, Kind, Outcome, PREFILL_VER};
use crate::spec::{BUCKETS_PER_SHARD, KEY_SPACE, SCAN_COUNT, SHARDS};

/// A per-thread handle of a tier.
pub trait Direct {
    fn get(&self, key: &Bytes) -> Option<Bytes>;
    /// `false` when the key is already present.
    fn insert(&self, key: Bytes, value: Bytes) -> bool;
    fn remove(&self, key: &Bytes) -> Option<Bytes>;
    /// Up to `SCAN_COUNT` keys: those after `after` in key order on the
    /// ordered tier, any on the hash tier (which has no ordered scan).
    fn scan(&self, after: &Bytes) -> Vec<Bytes>;
}

pub trait Tier: AsyncBackend<Key = Bytes, Value = Bytes> + Sized {
    type Local<'a>: Direct
    where
        Self: 'a;

    fn build() -> Self;
    fn direct(&self) -> Self::Local<'_>;
    fn route(&self, key: &Bytes) -> usize;
    /// Largest share of routed operations one shard received.
    fn max_ops_share(&self) -> f64;
    /// High-water mark of retired-but-not-freed nodes after `replay`
    /// has run on a handle of a fresh structure of this tier.
    fn peak_unreclaimed(replay: &mut dyn FnMut(&dyn Direct)) -> u64;
}

/// Insert the prefilled half of the key space.
pub fn prefill(h: &(impl Direct + ?Sized), keys: &KeyTable) {
    for k in (0..KEY_SPACE).filter(|&k| prefilled(k)) {
        assert!(h.insert(keys.get(k).clone(), value(k, PREFILL_VER)));
    }
}

/// One command through a direct handle.
pub fn apply(h: &(impl Direct + ?Sized), cmd: Cmd, keys: &KeyTable) -> Outcome {
    let key = keys.get(cmd.key);
    match cmd.kind {
        Kind::Get => Outcome::Value(h.get(key)),
        Kind::Set => Outcome::Stored(h.insert(key.clone(), value(cmd.key, cmd.ver))),
        Kind::Del => {
            let value = h.remove(key);
            Outcome::Removed {
                hit: value.is_some(),
                value,
            }
        }
        Kind::Scan => Outcome::Page {
            keys: h.scan(key),
            cursor: None,
        },
    }
}

impl Direct for ShardedMapHandle<'_, Bytes, Bytes> {
    fn get(&self, key: &Bytes) -> Option<Bytes> {
        ShardedMapHandle::get(self, key)
    }
    fn insert(&self, key: Bytes, value: Bytes) -> bool {
        ShardedMapHandle::insert(self, key, value).is_ok()
    }
    fn remove(&self, key: &Bytes) -> Option<Bytes> {
        ShardedMapHandle::remove(self, key)
    }
    fn scan(&self, _after: &Bytes) -> Vec<Bytes> {
        self.iter().take(SCAN_COUNT).map(|(k, _)| k).collect()
    }
}

impl Tier for ShardedMap<Bytes, Bytes> {
    type Local<'a> = ShardedMapHandle<'a, Bytes, Bytes>;

    fn build() -> Self {
        ShardedMap::new(SHARDS, BUCKETS_PER_SHARD)
    }
    fn direct(&self) -> Self::Local<'_> {
        self.handle()
    }
    fn route(&self, key: &Bytes) -> usize {
        self.shard_of(key)
    }
    fn max_ops_share(&self) -> f64 {
        let per_shard: Vec<u64> = self.snapshot().iter().map(|s| s.merged().ops).collect();
        let total: u64 = per_shard.iter().sum();
        per_shard
            .iter()
            .max()
            .map_or(0.0, |&m| m as f64 / total.max(1) as f64)
    }
    /// `ShardedMap` does not expose its shards' reclamation domains,
    /// so the gauge is read from one `lf-map` `BucketMap` with the same
    /// total bucket count — the same lists under one domain.
    fn peak_unreclaimed(replay: &mut dyn FnMut(&dyn Direct)) -> u64 {
        let map: BucketMap<Bytes, Bytes> = BucketMap::new(SHARDS * BUCKETS_PER_SHARD);
        replay(&map.handle());
        Ebr::gauge(map.domain()).peak_unreclaimed()
    }
}

impl Direct for lf_map::BucketMapHandle<'_, Bytes, Bytes> {
    fn get(&self, key: &Bytes) -> Option<Bytes> {
        lf_map::BucketMapHandle::get(self, key)
    }
    fn insert(&self, key: Bytes, value: Bytes) -> bool {
        lf_map::BucketMapHandle::insert(self, key, value).is_ok()
    }
    fn remove(&self, key: &Bytes) -> Option<Bytes> {
        lf_map::BucketMapHandle::remove(self, key)
    }
    fn scan(&self, _after: &Bytes) -> Vec<Bytes> {
        self.iter().take(SCAN_COUNT).map(|(k, _)| k).collect()
    }
}

impl Direct for ShardedHandle<'_, Bytes, Bytes> {
    fn get(&self, key: &Bytes) -> Option<Bytes> {
        ShardedHandle::get(self, key)
    }
    fn insert(&self, key: Bytes, value: Bytes) -> bool {
        ShardedHandle::insert(self, key, value).is_ok()
    }
    fn remove(&self, key: &Bytes) -> Option<Bytes> {
        ShardedHandle::remove(self, key)
    }
    fn scan(&self, after: &Bytes) -> Vec<Bytes> {
        let mut page = Vec::with_capacity(SCAN_COUNT);
        self.range((Bound::Excluded(after), Bound::Unbounded), |k, _| {
            page.push(k.clone());
            page.len() < SCAN_COUNT
        });
        page
    }
}

impl Tier for ShardedSkipList<Bytes, Bytes> {
    type Local<'a> = ShardedHandle<'a, Bytes, Bytes>;

    fn build() -> Self {
        ShardedSkipList::new(SHARDS)
    }
    fn direct(&self) -> Self::Local<'_> {
        self.handle()
    }
    fn route(&self, key: &Bytes) -> usize {
        self.shard_of(key)
    }
    fn max_ops_share(&self) -> f64 {
        self.snapshot().max_ops_share()
    }
    fn peak_unreclaimed(replay: &mut dyn FnMut(&dyn Direct)) -> u64 {
        let list = Self::build();
        replay(&list.direct());
        Ebr::gauge(list.domain()).peak_unreclaimed()
    }
}
