//! The libkern OSObject runtime: reference-counted property objects
//! (`OSString`, `OSNumber`, `OSDictionary`, ...) that I/O Kit registry
//! entries carry.
//!
//! I/O Kit "is written primarily in a restricted subset of C++" (§5.1);
//! the retain/release discipline of that subset is modelled explicitly so
//! leaks and over-releases are detectable in tests.

use std::collections::{BTreeMap, HashMap};

/// Handle to an object in the [`OsArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OsId(pub u64);

/// The value payload of an OSObject.
#[derive(Debug, Clone, PartialEq)]
pub enum OsValue {
    /// `OSString`.
    String(String),
    /// `OSNumber`.
    Number(i64),
    /// `OSBoolean`.
    Boolean(bool),
    /// `OSData`.
    Data(Vec<u8>),
    /// `OSArray` of retained children.
    Array(Vec<OsId>),
    /// `OSDictionary` of retained children.
    Dictionary(BTreeMap<String, OsId>),
}

/// The object arena with retain counts.
#[derive(Debug, Clone, Default)]
pub struct OsArena {
    objects: HashMap<u64, (OsValue, u32)>,
    next: u64,
}

impl OsArena {
    /// Empty arena.
    pub fn new() -> OsArena {
        OsArena::default()
    }

    /// Allocates an object with retain count 1.
    pub fn alloc(&mut self, value: OsValue) -> OsId {
        self.next += 1;
        self.objects.insert(self.next, (value, 1));
        OsId(self.next)
    }

    /// Convenience: allocates an `OSString`.
    pub fn string(&mut self, s: impl Into<String>) -> OsId {
        self.alloc(OsValue::String(s.into()))
    }

    /// Convenience: allocates an `OSNumber`.
    pub fn number(&mut self, n: i64) -> OsId {
        self.alloc(OsValue::Number(n))
    }

    /// Convenience: allocates an empty `OSDictionary`.
    pub fn dictionary(&mut self) -> OsId {
        self.alloc(OsValue::Dictionary(BTreeMap::new()))
    }

    /// `retain`: bumps the reference count.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id (a use-after-free bug in the caller).
    pub fn retain(&mut self, id: OsId) {
        self.objects
            .get_mut(&id.0)
            .expect("retain of freed OSObject")
            .1 += 1;
    }

    /// `release`: drops one reference; frees the object (and releases
    /// its children) at zero.
    ///
    /// # Panics
    ///
    /// Panics on a dangling id.
    pub fn release(&mut self, id: OsId) {
        let entry = self
            .objects
            .get_mut(&id.0)
            .expect("release of freed OSObject");
        entry.1 -= 1;
        if entry.1 == 0 {
            let (value, _) = self.objects.remove(&id.0).expect("present");
            match value {
                OsValue::Array(children) => {
                    for c in children {
                        self.release(c);
                    }
                }
                OsValue::Dictionary(children) => {
                    for c in children.into_values() {
                        self.release(c);
                    }
                }
                _ => {}
            }
        }
    }

    /// Borrow an object's value.
    pub fn get(&self, id: OsId) -> Option<&OsValue> {
        self.objects.get(&id.0).map(|(v, _)| v)
    }

    /// Current retain count (None if freed).
    pub fn retain_count(&self, id: OsId) -> Option<u32> {
        self.objects.get(&id.0).map(|(_, rc)| *rc)
    }

    /// `OSDictionary::setObject`: inserts `value` (retaining it) under
    /// `key`, releasing any previous value.
    ///
    /// # Panics
    ///
    /// Panics if `dict` is not a dictionary.
    pub fn dict_set(
        &mut self,
        dict: OsId,
        key: impl Into<String>,
        value: OsId,
    ) {
        self.retain(value);
        let old = {
            let (v, _) = self
                .objects
                .get_mut(&dict.0)
                .expect("dict_set on freed object");
            let OsValue::Dictionary(map) = v else {
                panic!("dict_set on non-dictionary");
            };
            map.insert(key.into(), value)
        };
        if let Some(old) = old {
            self.release(old);
        }
    }

    /// `OSDictionary::getObject` (borrowed, no retain).
    pub fn dict_get(&self, dict: OsId, key: &str) -> Option<OsId> {
        match self.get(dict)? {
            OsValue::Dictionary(map) => map.get(key).copied(),
            _ => None,
        }
    }

    /// Looks up a string property through a dictionary.
    pub fn dict_get_string(&self, dict: OsId, key: &str) -> Option<&str> {
        match self.get(self.dict_get(dict, key)?)? {
            OsValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Live object count (leak detector).
    pub fn live(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_retain_release_lifecycle() {
        let mut a = OsArena::new();
        let s = a.string("hello");
        assert_eq!(a.retain_count(s), Some(1));
        a.retain(s);
        assert_eq!(a.retain_count(s), Some(2));
        a.release(s);
        a.release(s);
        assert_eq!(a.retain_count(s), None);
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn dictionary_retains_and_releases_children() {
        let mut a = OsArena::new();
        let d = a.dictionary();
        let v = a.number(42);
        a.dict_set(d, "IOClass", v);
        assert_eq!(a.retain_count(v), Some(2));
        a.release(v); // caller's reference
        assert_eq!(a.retain_count(v), Some(1));
        a.release(d); // dictionary frees, releasing the child
        assert_eq!(a.live(), 0);
    }

    #[test]
    fn dict_set_replaces_and_releases_old() {
        let mut a = OsArena::new();
        let d = a.dictionary();
        let v1 = a.string("one");
        let v2 = a.string("two");
        a.dict_set(d, "k", v1);
        a.release(v1);
        a.dict_set(d, "k", v2);
        a.release(v2);
        // v1 fully gone, v2 held by the dict.
        assert_eq!(a.dict_get_string(d, "k"), Some("two"));
        assert_eq!(a.live(), 2); // dict + v2
    }

    #[test]
    #[should_panic(expected = "release of freed OSObject")]
    fn over_release_detected() {
        let mut a = OsArena::new();
        let s = a.string("x");
        a.release(s);
        a.release(s);
    }

    #[test]
    fn dict_get_string_type_checked() {
        let mut a = OsArena::new();
        let d = a.dictionary();
        let n = a.number(1);
        a.dict_set(d, "n", n);
        assert_eq!(a.dict_get_string(d, "n"), None);
        assert_eq!(a.dict_get_string(d, "missing"), None);
    }
}
