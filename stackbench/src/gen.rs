//! Inputs and their oracle: seeded operation streams, key and value
//! encoding, and the per-generator model every reply is checked
//! against.
//!
//! Each generator writes only its own key stripe (`key % of == me`),
//! so no other thread changes what its own keys hold and every reply
//! to an own-key command is known exactly when the command is sent —
//! also inside a pipelined burst, because the stack orders same-key
//! commands of one connection. Replies about foreign keys and `SCAN`
//! pages are checked for form only.

use lf_workloads::{KeyDist, Mix, OpKind, WorkloadIter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{KeyShape, Workload, KEY_LEN, KEY_SPACE, SCAN_COUNT, VALUE_LEN};

pub type Bytes = Vec<u8>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set,
    Del,
    Scan,
}

/// One command as the stack receives it. `ver` is the version the
/// value of a `Set` carries (0 otherwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cmd {
    pub kind: Kind,
    pub key: u32,
    pub ver: u32,
}

/// The keys a generator may write.
#[derive(Clone, Copy, Debug)]
pub struct Stripe {
    pub me: u32,
    pub of: u32,
}

impl Stripe {
    /// One generator owning every key (the ledger pass).
    pub const ALL: Stripe = Stripe { me: 0, of: 1 };

    fn owns(self, key: u32) -> bool {
        key % self.of == self.me
    }

    /// The own key nearest below-or-at `key`'s stripe group.
    fn own(self, key: u32) -> u32 {
        key - key % self.of + self.me
    }
}

/// Half the keys are present before the first command.
pub fn prefilled(key: u32) -> bool {
    (key >> 1) & 1 == 0
}

/// All keys, encoded once.
pub struct KeyTable(Vec<Bytes>);

impl KeyTable {
    pub fn new() -> Self {
        KeyTable(
            (0..KEY_SPACE)
                .map(|k| format!("{k:0KEY_LEN$}").into_bytes())
                .collect(),
        )
    }

    pub fn get(&self, key: u32) -> &Bytes {
        &self.0[key as usize]
    }
}

/// `decode_key` inverts [`KeyTable`]; `None` for anything that is not
/// a key of the space.
pub fn decode_key(bytes: &[u8]) -> Option<u32> {
    if bytes.len() != KEY_LEN || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let k: u64 = std::str::from_utf8(bytes).ok()?.parse().ok()?;
    (k < KEY_SPACE as u64).then_some(k as u32)
}

const VER_DIGITS: usize = 10;

/// The value version `ver` of `key` holds: `<key>:<ver>:xxx…`, so a
/// reader can tell from the bytes alone which write it sees.
pub fn value(key: u32, ver: u32) -> Bytes {
    let mut v = format!("{key:0KEY_LEN$}:{ver:0VER_DIGITS$}:").into_bytes();
    v.resize(VALUE_LEN, b'x');
    v
}

/// The version a well-formed value of `key` carries.
pub fn decode_value(key: u32, val: &[u8]) -> Option<u32> {
    let ver_end = KEY_LEN + 1 + VER_DIGITS;
    if val.len() != VALUE_LEN
        || decode_key(&val[..KEY_LEN]) != Some(key)
        || val[KEY_LEN] != b':'
        || val[ver_end] != b':'
        || !val[ver_end + 1..].iter().all(|&b| b == b'x')
    {
        return None;
    }
    let digits = &val[KEY_LEN + 1..ver_end];
    if !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// The seeded command stream of one generator.
pub struct OpGen {
    iter: WorkloadIter,
    rng: SmallRng,
    /// Share of the stream's searches that become scans.
    scan_of_search: f64,
    stripe: Stripe,
}

impl OpGen {
    /// `--seed` and the generator's index are the only inputs.
    pub fn new(w: &Workload, seed: u64, stripe: Stripe) -> Self {
        let seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stripe.me as u64);
        let space = KEY_SPACE as u64;
        let dist = match w.keys {
            KeyShape::Zipfian => KeyDist::Zipfian { space, theta: 0.99 },
            KeyShape::Uniform => KeyDist::Uniform { space },
        };
        let searches = w.mix.get + w.mix.scan;
        OpGen {
            iter: WorkloadIter::new(Mix::new(w.mix.set, w.mix.del, searches), dist, seed),
            rng: SmallRng::seed_from_u64(!seed),
            scan_of_search: w.mix.scan as f64 / searches.max(1) as f64,
            stripe,
        }
    }

    /// Next `(kind, key)`; writes land on the generator's own stripe.
    pub fn next_op(&mut self) -> (Kind, u32) {
        let op = self.iter.next_op();
        let key = op.key as u32;
        match op.kind {
            OpKind::Insert => (Kind::Set, self.stripe.own(key)),
            OpKind::Remove => (Kind::Del, self.stripe.own(key)),
            OpKind::Search
                if self.scan_of_search > 0.0 && self.rng.gen_bool(self.scan_of_search) =>
            {
                (Kind::Scan, key)
            }
            OpKind::Search => (Kind::Get, key),
        }
    }
}

/// What a `Set` does to a present key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetRule {
    /// Wire and async fronts: replace.
    Upsert,
    /// Direct front: refuse.
    Insert,
}

/// What the stack answered, in one shape for all three fronts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Value(Option<Bytes>),
    Stored(bool),
    /// The wire says only whether a key was removed; the other fronts
    /// return its value too.
    Removed {
        hit: bool,
        value: Option<Bytes>,
    },
    /// Keys of a scan page, and the decoded wire cursor when there is
    /// one (`Some(None)` is the terminal cursor `0`).
    Page {
        keys: Vec<Bytes>,
        cursor: Option<Option<Bytes>>,
    },
    Failed(Fail),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// `-BUSY shed` / `-BUSY rejected`, `Error::Shed` / `Rejected`.
    Busy,
    /// Any other error reply, or a reply of the wrong type.
    Error,
}

/// What the model predicts for one command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Own key: exactly this version, or absent.
    Value {
        key: u32,
        ver: Option<u32>,
    },
    /// Foreign key: absent, or any well-formed value of that key.
    AnyValue {
        key: u32,
    },
    Stored(bool),
    Removed {
        key: u32,
        ver: Option<u32>,
    },
    Page {
        after: u32,
    },
}

impl Expect {
    pub fn matches(&self, got: &Outcome, keys: &KeyTable) -> bool {
        match (*self, got) {
            (Expect::Value { key, ver }, Outcome::Value(v)) => {
                v.as_deref().map(|v| decode_value(key, v)) == ver.map(Some)
            }
            (Expect::AnyValue { key }, Outcome::Value(v)) => {
                v.as_deref().is_none_or(|v| decode_value(key, v).is_some())
            }
            (Expect::Stored(want), Outcome::Stored(got)) => want == *got,
            (Expect::Removed { key, ver }, Outcome::Removed { hit, value }) => {
                *hit == ver.is_some()
                    && value
                        .as_deref()
                        .is_none_or(|v| decode_value(key, v).is_some_and(|got| Some(got) == ver))
            }
            (Expect::Page { after }, Outcome::Page { keys: page, cursor }) => {
                let ascending = page.windows(2).all(|w| w[0] < w[1]);
                let in_space = page.iter().all(|k| decode_key(k).is_some());
                let past = page.first().is_none_or(|k| k > keys.get(after));
                let next = (page.len() == SCAN_COUNT)
                    .then(|| page.last().cloned())
                    .flatten();
                ascending
                    && in_space
                    && past
                    && page.len() <= SCAN_COUNT
                    && cursor.as_ref().is_none_or(|c| *c == next)
            }
            _ => false,
        }
    }
}

/// A generator's view of the keys it owns.
pub struct Model {
    /// Version held per key; 0 is absent. Only own keys are consulted.
    ver: Vec<u32>,
    next_ver: u32,
    stripe: Stripe,
    rule: SetRule,
}

/// Version every prefilled key starts with.
pub const PREFILL_VER: u32 = 1;

impl Model {
    pub fn new(stripe: Stripe, rule: SetRule) -> Self {
        Model {
            ver: (0..KEY_SPACE)
                .map(|k| if prefilled(k) { PREFILL_VER } else { 0 })
                .collect(),
            next_ver: PREFILL_VER,
            stripe,
            rule,
        }
    }

    fn held(&self, key: u32) -> Option<u32> {
        Some(self.ver[key as usize]).filter(|&v| v != 0)
    }

    /// Turn the next generated operation into the command to send and
    /// the reply to expect, advancing the model as if it had been
    /// applied.
    pub fn plan(&mut self, (kind, key): (Kind, u32)) -> (Cmd, Expect) {
        let mut cmd = Cmd { kind, key, ver: 0 };
        let expect = match kind {
            Kind::Get if self.stripe.owns(key) => Expect::Value {
                key,
                ver: self.held(key),
            },
            Kind::Get => Expect::AnyValue { key },
            Kind::Set => {
                self.next_ver += 1;
                cmd.ver = self.next_ver;
                let stored = self.rule == SetRule::Upsert || self.held(key).is_none();
                if stored {
                    self.ver[key as usize] = cmd.ver;
                }
                Expect::Stored(stored)
            }
            Kind::Del => {
                let ver = self.held(key);
                self.ver[key as usize] = 0;
                Expect::Removed { key, ver }
            }
            Kind::Scan => Expect::Page { after: key },
        };
        (cmd, expect)
    }
}

/// Every command sent is attempted; it is ok, or it failed one way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub busy: u64,
    pub errors: u64,
    /// Commands lost to a socket error (sent or not).
    pub io: u64,
    /// Replies that contradict the model.
    pub mismatches: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.io + self.mismatches
    }

    /// Judge one reply.
    pub fn check(&mut self, expect: &Expect, got: &Outcome, keys: &KeyTable) {
        self.attempted += 1;
        match got {
            Outcome::Failed(Fail::Busy) => self.busy += 1,
            Outcome::Failed(Fail::Error) => self.errors += 1,
            _ if expect.matches(got, keys) => self.ok += 1,
            _ => self.mismatches += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.busy += other.busy;
        self.errors += other.errors;
        self.io += other.io;
        self.mismatches += other.mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn values_round_trip_and_reject_damage() {
        let v = value(42, 7);
        assert_eq!(v.len(), VALUE_LEN);
        assert_eq!(decode_value(42, &v), Some(7));
        assert_eq!(decode_value(43, &v), None);
        let mut bad = v.clone();
        bad[VALUE_LEN - 1] = b'y';
        assert_eq!(decode_value(42, &bad), None);
        assert_eq!(decode_key(KeyTable::new().get(65_535)), Some(65_535));
        assert_eq!(decode_key(b"000000065536"), None);
    }

    #[test]
    fn same_seed_same_stream_and_writes_stay_on_the_stripe() {
        let stripe = Stripe { me: 1, of: 2 };
        for w in &WORKLOADS {
            let mut a = OpGen::new(w, 9, stripe);
            let mut b = OpGen::new(w, 9, stripe);
            let mut c = OpGen::new(w, 10, stripe);
            let mut differs = false;
            let mut scans = 0;
            for _ in 0..10_000 {
                let op = a.next_op();
                assert_eq!(op, b.next_op());
                differs |= op != c.next_op();
                scans += (op.0 == Kind::Scan) as u32;
                if matches!(op.0, Kind::Set | Kind::Del) {
                    assert!(stripe.owns(op.1));
                }
            }
            assert!(differs, "{}: seed ignored", w.name);
            let want = w.mix.scan as i64 * 100;
            assert!(
                (scans as i64 - want).abs() <= want / 5 + 1,
                "{}: {scans} scans",
                w.name
            );
        }
    }

    /// The acceptance check: one flipped value is a failure, and a
    /// failure makes the run exit non-zero.
    #[test]
    fn a_corrupted_reply_is_counted_and_fails_the_run() {
        let keys = KeyTable::new();
        let mut model = Model::new(Stripe::ALL, SetRule::Upsert);
        let mut tally = Tally::default();
        let (cmd, expect) = model.plan((Kind::Set, 6));
        tally.check(&expect, &Outcome::Stored(true), &keys);
        let (_, expect) = model.plan((Kind::Get, 6));
        tally.check(&expect, &Outcome::Value(Some(value(6, cmd.ver))), &keys);
        assert_eq!((tally.ok, tally.failed()), (2, 0));
        assert_eq!(crate::report::exit_code(tally.failed() == 0), 0);

        let mut flipped = value(6, cmd.ver);
        flipped[KEY_LEN + 3] ^= 1;
        tally.check(&expect, &Outcome::Value(Some(flipped)), &keys);
        assert_eq!(
            (tally.attempted, tally.mismatches, tally.failed()),
            (3, 1, 1)
        );
        assert_ne!(crate::report::exit_code(tally.failed() == 0), 0);
    }

    #[test]
    fn model_follows_both_set_rules() {
        let keys = KeyTable::new();
        let mut direct = Model::new(Stripe::ALL, SetRule::Insert);
        // Key 0 is prefilled: an insert is refused, a delete hits once.
        assert_eq!(direct.plan((Kind::Set, 0)).1, Expect::Stored(false));
        let del = direct.plan((Kind::Del, 0)).1;
        assert_eq!(
            del,
            Expect::Removed {
                key: 0,
                ver: Some(PREFILL_VER)
            }
        );
        assert!(del.matches(
            &Outcome::Removed {
                hit: true,
                value: Some(value(0, PREFILL_VER))
            },
            &keys
        ));
        assert!(!del.matches(
            &Outcome::Removed {
                hit: false,
                value: None
            },
            &keys
        ));
        assert_eq!(direct.plan((Kind::Set, 0)).1, Expect::Stored(true));
        // Key 2 is not prefilled.
        assert_eq!(
            direct.plan((Kind::Get, 2)).1,
            Expect::Value { key: 2, ver: None }
        );
        // A foreign key may hold anything well-formed.
        let mut striped = Model::new(Stripe { me: 0, of: 2 }, SetRule::Upsert);
        let foreign = striped.plan((Kind::Get, 5)).1;
        assert!(foreign.matches(&Outcome::Value(None), &keys));
        assert!(foreign.matches(&Outcome::Value(Some(value(5, 99))), &keys));
        assert!(!foreign.matches(&Outcome::Value(Some(value(4, 99))), &keys));
    }

    #[test]
    fn pages_are_checked_for_form() {
        let keys = KeyTable::new();
        let page = |ks: &[u32]| ks.iter().map(|&k| keys.get(k).clone()).collect::<Vec<_>>();
        let expect = Expect::Page { after: 10 };
        let ok = Outcome::Page {
            keys: page(&[11, 12, 40]),
            cursor: Some(None),
        };
        assert!(expect.matches(&ok, &keys));
        for bad in [
            Outcome::Page {
                keys: page(&[10, 12]),
                cursor: None,
            },
            Outcome::Page {
                keys: page(&[12, 11]),
                cursor: None,
            },
            Outcome::Page {
                keys: page(&[11]),
                cursor: Some(Some(keys.get(11).clone())),
            },
        ] {
            assert!(!expect.matches(&bad, &keys), "{bad:?}");
        }
        let full: Vec<u32> = (11..11 + SCAN_COUNT as u32).collect();
        let last = keys.get(*full.last().unwrap()).clone();
        assert!(expect.matches(
            &Outcome::Page {
                keys: page(&full),
                cursor: Some(Some(last))
            },
            &keys
        ));
        assert!(!expect.matches(
            &Outcome::Page {
                keys: page(&full),
                cursor: Some(None)
            },
            &keys
        ));
    }
}
