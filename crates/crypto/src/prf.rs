//! The paper's two keyed functions: the PRF `f` and the label hash `pi`.

use crate::hmac::Hmac;
use crate::keys::SecretKey;
use crate::sha1::Sha1;
use crate::sha256::Sha256;
use crate::tape::Tape;

/// The pseudo-random function `f : {0,1}^k x {0,1}* -> {0,1}^256`.
///
/// The paper uses `f_y(w)` to derive the per-posting-list entry-encryption
/// key and `f_z(w)` to derive per-list OPM keys. Instantiated as
/// HMAC-SHA-256, keyed once at construction.
///
/// # Example
///
/// ```
/// use rsse_crypto::{Prf, SecretKey};
///
/// let prf = Prf::new(&SecretKey::derive(b"seed", "y"));
/// let per_list_key = prf.derive_key(b"network");
/// assert_eq!(per_list_key.as_bytes().len(), 32);
/// ```
#[derive(Clone)]
pub struct Prf {
    mac: Hmac<Sha256>,
}

impl core::fmt::Debug for Prf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Prf {{ key: <redacted> }}")
    }
}

impl Prf {
    /// Creates the PRF keyed with `key`.
    pub fn new(key: &SecretKey) -> Self {
        Prf {
            mac: Hmac::new(key.as_bytes()),
        }
    }

    /// Evaluates `f_key(input)` to 32 bytes.
    pub fn eval(&self, input: &[u8]) -> [u8; 32] {
        self.mac.tag(input)
    }

    /// The coin tape `Tape::new(key, transcript)` under this PRF's key,
    /// opened from the already keyed state.
    pub fn tape(&self, transcript: &[u8]) -> Tape {
        Tape::new_keyed(&self.mac, transcript)
    }

    /// Evaluates the PRF and wraps the output as a [`SecretKey`] — the
    /// `f_y(w_i)` / `f_z(w_i)` per-list key derivations of the paper.
    pub fn derive_key(&self, input: &[u8]) -> SecretKey {
        SecretKey::from_bytes(self.eval(input))
    }
}

/// The collision-resistant keyed label function
/// `pi : {0,1}^k x {0,1}* -> {0,1}^p` with `p = 160` bits.
///
/// The paper instantiates `pi` with SHA-1 ("in which case p is 160 bits");
/// we key it as HMAC-SHA-1 so labels are unlinkable without the key `x`.
/// The server locates a posting list by exact match on this label.
///
/// # Example
///
/// ```
/// use rsse_crypto::{KeyedLabel, SecretKey};
///
/// let pi = KeyedLabel::new(&SecretKey::derive(b"seed", "x"));
/// let l1 = pi.label(b"network");
/// assert_eq!(l1, pi.label(b"network"));
/// assert_ne!(l1, pi.label(b"networks"));
/// ```
#[derive(Clone)]
pub struct KeyedLabel {
    mac: Hmac<Sha1>,
}

impl core::fmt::Debug for KeyedLabel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeyedLabel {{ key: <redacted> }}")
    }
}

/// A 160-bit posting-list label `pi_x(w)`.
pub type Label = [u8; 20];

impl KeyedLabel {
    /// Creates the label function keyed with `key` (the paper's `x`).
    pub fn new(key: &SecretKey) -> Self {
        KeyedLabel {
            mac: Hmac::new(key.as_bytes()),
        }
    }

    /// Computes the 160-bit label `pi_x(word)`.
    pub fn label(&self, word: &[u8]) -> Label {
        self.mac.tag(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prf_deterministic_and_input_sensitive() {
        let prf = Prf::new(&SecretKey::derive(b"s", "y"));
        assert_eq!(prf.eval(b"a"), prf.eval(b"a"));
        assert_ne!(prf.eval(b"a"), prf.eval(b"b"));
    }

    #[test]
    fn prf_key_sensitive() {
        let p1 = Prf::new(&SecretKey::derive(b"s", "y1"));
        let p2 = Prf::new(&SecretKey::derive(b"s", "y2"));
        assert_ne!(p1.eval(b"a"), p2.eval(b"a"));
    }

    #[test]
    fn prf_tape_is_the_tape_under_the_prf_key() {
        let key = SecretKey::derive(b"s", "z");
        let mut from_prf = Prf::new(&key).tape(b"transcript");
        let mut direct = Tape::new(&key, b"transcript");
        for _ in 0..10 {
            assert_eq!(from_prf.next_u64(), direct.next_u64());
        }
    }

    #[test]
    fn labels_are_160_bits_and_key_sensitive() {
        let pi1 = KeyedLabel::new(&SecretKey::derive(b"s", "x1"));
        let pi2 = KeyedLabel::new(&SecretKey::derive(b"s", "x2"));
        let l = pi1.label(b"network");
        assert_eq!(l.len(), 20);
        assert_ne!(l, pi2.label(b"network"));
    }

    #[test]
    fn no_label_collisions_over_small_vocabulary() {
        // p > log m must hold; with p = 160 collisions over a realistic
        // vocabulary would indicate a broken implementation.
        let pi = KeyedLabel::new(&SecretKey::derive(b"s", "x"));
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            assert!(seen.insert(pi.label(format!("kw{i}").as_bytes())));
        }
    }
}
