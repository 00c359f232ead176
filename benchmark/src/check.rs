//! The correctness oracle: a key→version model per client.
//!
//! A value is a pure function of `(key, version)` ([`value_for`]), so
//! any row a GET or a scan returns is verifiable from the model alone.
//! Each client owns a disjoint arithmetic progression of keys, which
//! makes its model exact under concurrency: no other client writes them.

use crate::gen::value_for;

/// What the benchmark prints as `attempted` / `failed`. An error, a
/// refusal, a wrong value and a lost key all count as failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Versions of the keys `first, first + step, first + 2·step, …`;
/// version 0 means the key was never written.
#[derive(Debug, Clone)]
pub struct Model {
    first: u64,
    step: u64,
    versions: Vec<u32>,
}

impl Model {
    /// A model of `slots` keys, none written yet.
    pub fn new(first: u64, step: u64, slots: usize) -> Self {
        Self {
            first,
            step,
            versions: vec![0; slots],
        }
    }

    pub fn slots(&self) -> usize {
        self.versions.len()
    }

    pub fn key(&self, slot: usize) -> u64 {
        self.first + slot as u64 * self.step
    }

    pub fn version(&self, slot: usize) -> u32 {
        self.versions[slot]
    }

    /// Appends a never-written key and returns its slot.
    pub fn push_slot(&mut self) -> usize {
        self.versions.push(0);
        self.versions.len() - 1
    }

    /// Advances `slot` to its next version and returns the record to write.
    pub fn next_put(&mut self, slot: usize) -> (u64, [u8; 100]) {
        self.versions[slot] += 1;
        let key = self.key(slot);
        (key, value_for(key, self.versions[slot]))
    }

    /// Keys written at least once.
    pub fn live_keys(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != 0).count() as u64
    }

    /// Whether `got` is what a read of `slot` must return right now.
    pub fn matches(&self, slot: usize, got: Option<&[u8]>) -> bool {
        value_matches(self.key(slot), self.versions[slot], got)
    }

    /// Reads every slot through `get` and checks it: the full-model
    /// verification run after a reopen or a compaction.
    pub fn verify_all(&self, mut get: impl FnMut(u64) -> Option<Vec<u8>>) -> Tally {
        let mut tally = Tally::default();
        for slot in 0..self.slots() {
            tally.record(self.matches(slot, get(self.key(slot)).as_deref()));
        }
        tally
    }

    /// Whether `rows` is exactly what a scan of at most `limit` rows
    /// starting at `slot` must return: consecutive written keys, in
    /// order, each with its current value.
    pub fn scan_matches<K, V>(&self, slot: usize, limit: usize, rows: &[(K, V)]) -> bool
    where
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let mut expected = (slot..self.slots()).filter(|&s| self.versions[s] != 0);
        let mut seen = 0;
        for (key, value) in rows {
            let Some(s) = expected.next() else {
                return false;
            };
            if key.as_ref() != self.key(s).to_be_bytes() || !self.matches(s, Some(value.as_ref())) {
                return false;
            }
            seen += 1;
        }
        seen == limit || expected.next().is_none()
    }
}

/// Whether `got` is the value of `key` at `version` (absent at version 0).
pub fn value_matches(key: u64, version: u32, got: Option<&[u8]>) -> bool {
    match (version, got) {
        (0, None) => true,
        (0, Some(_)) | (_, None) => false,
        (v, Some(bytes)) => bytes == value_for(key, v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A stand-in store the tests can corrupt.
    fn store_of(model: &mut Model, writes: &[usize]) -> BTreeMap<u64, Vec<u8>> {
        let mut store = BTreeMap::new();
        for &slot in writes {
            let (key, value) = model.next_put(slot);
            store.insert(key, value.to_vec());
        }
        store
    }

    #[test]
    fn a_faithful_store_passes() {
        let mut model = Model::new(1, 2, 4);
        let store = store_of(&mut model, &[0, 1, 1, 3]);
        let tally = model.verify_all(|k| store.get(&k).cloned());
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 0
            }
        );
        assert_eq!(model.live_keys(), 3);
    }

    #[test]
    fn a_wrong_value_fails() {
        let mut model = Model::new(0, 1, 3);
        let mut store = store_of(&mut model, &[0, 1, 2, 1]);
        // Key 1 reverts to its first version: a stale read.
        store.insert(1, value_for(1, 1).to_vec());
        let tally = model.verify_all(|k| store.get(&k).cloned());
        assert_eq!(tally.failed, 1);
        // One flipped byte is also a wrong value.
        store.insert(1, value_for(1, 2).to_vec());
        store.get_mut(&2).unwrap()[40] ^= 1;
        assert_eq!(model.verify_all(|k| store.get(&k).cloned()).failed, 1);
    }

    #[test]
    fn a_dropped_key_fails() {
        let mut model = Model::new(0, 1, 3);
        let mut store = store_of(&mut model, &[0, 1, 2]);
        store.remove(&2);
        assert_eq!(model.verify_all(|k| store.get(&k).cloned()).failed, 1);
    }

    #[test]
    fn a_resurrected_key_fails() {
        let model = Model::new(0, 1, 2);
        let tally = model.verify_all(|k| (k == 1).then(|| value_for(1, 1).to_vec()));
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn scans_are_checked_row_by_row() {
        let mut model = Model::new(0, 2, 5);
        let store = store_of(&mut model, &[0, 1, 3, 4]);
        let rows = |from: u64, n: usize| -> Vec<(Vec<u8>, Vec<u8>)> {
            store
                .range(from..)
                .take(n)
                .map(|(k, v)| (k.to_be_bytes().to_vec(), v.clone()))
                .collect()
        };
        assert!(model.scan_matches(1, 2, &rows(2, 2)));
        // Running off the end of the key space returns fewer rows.
        assert!(model.scan_matches(3, 10, &rows(6, 10)));
        // A short scan that stopped early, a skipped row, a stale row.
        assert!(!model.scan_matches(0, 3, &rows(0, 2)));
        let mut skipped = rows(0, 3);
        skipped.remove(1);
        assert!(!model.scan_matches(0, 2, &skipped));
        let mut stale = rows(0, 2);
        stale[1].1 = value_for(2, 9).to_vec();
        assert!(!model.scan_matches(0, 2, &stale));
    }
}
