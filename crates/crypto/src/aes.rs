//! AES-128 / AES-256 block cipher (FIPS 197), implemented from the
//! specification with computed S-boxes.
//!
//! This is the block cipher behind [`crate::SemanticCipher`] (AES-CTR), the
//! semantically secure encryption `E` of the paper's basic scheme, and so
//! the cost of every posting-entry and file decryption. Encryption uses the
//! standard 32-bit T-table formulation: four 1 KiB tables, derived once
//! from the S-box, fuse SubBytes, ShiftRows and MixColumns into four
//! lookups and XORs per state column, and the last round goes through the
//! plain S-box. [`Aes128::encrypt_blocks`] runs two blocks' rounds
//! interleaved so one block's lookups overlap the other's; the CTR
//! keystream feeds it counter blocks in pairs. Decryption, which only tests
//! and documentation use, stays the byte-wise FIPS-197 inverse cipher.
//!
//! Everything is safe, portable Rust with no architecture-specific
//! intrinsics. Table lookups are indexed by key-dependent bytes, so like
//! any table-driven software AES this is not constant-time against a
//! cache-timing attacker sharing the machine (see DESIGN.md).

/// AES block length in bytes.
pub const BLOCK_LEN: usize = 16;

/// The AES S-box, generated once from the multiplicative inverse in GF(2^8)
/// followed by the affine transform.
fn sbox_tables() -> &'static ([u8; 256], [u8; 256]) {
    static TABLES: std::sync::OnceLock<([u8; 256], [u8; 256])> = std::sync::OnceLock::new();
    TABLES.get_or_init(compute_sbox_tables)
}

#[allow(clippy::needless_range_loop)] // i doubles as the field element value
fn compute_sbox_tables() -> ([u8; 256], [u8; 256]) {
    // GF(2^8) multiplication by x modulo the AES polynomial x^8+x^4+x^3+x+1.
    fn xtime(a: u8) -> u8 {
        (a << 1) ^ (((a >> 7) & 1) * 0x1b)
    }
    fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 == 1 {
                p ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        p
    }
    // Multiplicative inverse via exponentiation: a^254 = a^-1 in GF(2^8).
    fn ginv(a: u8) -> u8 {
        if a == 0 {
            return 0;
        }
        let mut result = 1u8;
        let mut base = a;
        let mut exp = 254u16;
        while exp > 0 {
            if exp & 1 == 1 {
                result = gmul(result, base);
            }
            base = gmul(base, base);
            exp >>= 1;
        }
        result
    }
    let mut sbox = [0u8; 256];
    let mut inv_sbox = [0u8; 256];
    for i in 0..256 {
        let x = ginv(i as u8);
        let s =
            x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        sbox[i] = s;
        inv_sbox[s as usize] = i as u8;
    }
    (sbox, inv_sbox)
}

/// The encryption T-tables: `TE[0][x]` is the MixColumns image of the
/// column `(S[x], 0, 0, 0)`, i.e. the big-endian word
/// `(2·S[x], S[x], S[x], 3·S[x])`, and `TE[i]` is `TE[0]` rotated right by
/// `8·i` bits for the byte that ShiftRows moves into row `i`.
type TeTables = [[u32; 256]; 4];

fn te_tables() -> &'static TeTables {
    static TABLES: std::sync::OnceLock<TeTables> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let (sbox, _) = sbox_tables();
        let mut te = [[0u32; 256]; 4];
        for (x, &s) in sbox.iter().enumerate() {
            let word = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
            for (i, table) in te.iter_mut().enumerate() {
                table[x] = word.rotate_right(8 * i as u32);
            }
        }
        te
    })
}

fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

fn gmul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut a = a;
    let mut b = b;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Most round-key words of any variant: AES-256 has 15 round keys.
const MAX_ROUND_WORDS: usize = 4 * 15;

/// A 16-byte state as four big-endian column words.
type State = [u32; 4];

fn load(block: &[u8; 16]) -> State {
    core::array::from_fn(|c| {
        u32::from_be_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

fn store(state: &State, block: &mut [u8; 16]) {
    for (bytes, word) in block.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// The byte of `word` in row `row` (row 0 is the most significant).
fn row_byte(word: u32, row: u32) -> usize {
    (word >> (24 - 8 * row)) as u8 as usize
}

/// Expanded-key AES cipher with `NR` rounds (10 for AES-128, 14 for AES-256).
#[derive(Clone)]
struct AesCore {
    /// Round-key words `w[0..4·(nr+1)]` of FIPS 197 §5.2, big-endian.
    round_keys: [u32; MAX_ROUND_WORDS],
    rounds: usize,
    te: &'static TeTables,
    sbox: &'static [u8; 256],
    inv_sbox: &'static [u8; 256],
}

impl AesCore {
    fn new(key: &[u8]) -> Self {
        let nk = key.len() / 4; // 4 for AES-128, 8 for AES-256
        let nr = nk + 6;
        let (sbox, inv_sbox) = sbox_tables();
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| sbox[b as usize]));
        // Key expansion (FIPS 197 section 5.2), word oriented.
        let total_words = 4 * (nr + 1);
        let mut w = [0u32; MAX_ROUND_WORDS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let mut rcon = 1u8;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        AesCore {
            round_keys: w,
            rounds: nr,
            te: te_tables(),
            sbox,
            inv_sbox,
        }
    }

    /// Round key `round` as a state.
    fn round_key(&self, round: usize) -> State {
        self.round_keys[4 * round..4 * round + 4]
            .try_into()
            .expect("four words")
    }

    /// One full round (SubBytes, ShiftRows, MixColumns, AddRoundKey) by
    /// table lookup.
    fn round(&self, s: &State, rk: &State) -> State {
        let te = self.te;
        core::array::from_fn(|c| {
            te[0][row_byte(s[c], 0)]
                ^ te[1][row_byte(s[(c + 1) % 4], 1)]
                ^ te[2][row_byte(s[(c + 2) % 4], 2)]
                ^ te[3][row_byte(s[(c + 3) % 4], 3)]
                ^ rk[c]
        })
    }

    /// The last round (SubBytes, ShiftRows, AddRoundKey): no MixColumns,
    /// so it goes through the plain S-box.
    fn final_round(&self, s: &State, rk: &State) -> State {
        let sbox = self.sbox;
        core::array::from_fn(|c| {
            u32::from_be_bytes([
                sbox[row_byte(s[c], 0)],
                sbox[row_byte(s[(c + 1) % 4], 1)],
                sbox[row_byte(s[(c + 2) % 4], 2)],
                sbox[row_byte(s[(c + 3) % 4], 3)],
            ]) ^ rk[c]
        })
    }

    /// The initial AddRoundKey.
    fn whiten(&self, block: &[u8; 16]) -> State {
        let (s, rk) = (load(block), self.round_key(0));
        core::array::from_fn(|c| s[c] ^ rk[c])
    }

    fn encrypt_block(&self, block: &mut [u8; 16]) {
        let mut s = self.whiten(block);
        for round in 1..self.rounds {
            s = self.round(&s, &self.round_key(round));
        }
        store(&self.final_round(&s, &self.round_key(self.rounds)), block);
    }

    /// Encrypts two blocks with their rounds interleaved: the two states
    /// are independent, so one block's table lookups overlap the other's.
    fn encrypt_pair(&self, a: &mut [u8; 16], b: &mut [u8; 16]) {
        let (mut sa, mut sb) = (self.whiten(a), self.whiten(b));
        for round in 1..self.rounds {
            let rk = self.round_key(round);
            sa = self.round(&sa, &rk);
            sb = self.round(&sb, &rk);
        }
        let rk = self.round_key(self.rounds);
        store(&self.final_round(&sa, &rk), a);
        store(&self.final_round(&sb, &rk), b);
    }

    fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        let (pairs, tail) = blocks.as_chunks_mut::<2>();
        for [a, b] in pairs {
            self.encrypt_pair(a, b);
        }
        for block in tail {
            self.encrypt_block(block);
        }
    }

    fn round_key_bytes(&self, round: usize) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        store(&self.round_key(round), &mut bytes);
        bytes
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn inv_sub_bytes(&self, state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = self.inv_sbox[*b as usize];
        }
    }

    // State layout: state[r + 4c] is row r, column c (column-major like FIPS).
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] =
                gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
            state[4 * c + 1] =
                gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
            state[4 * c + 2] =
                gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
            state[4 * c + 3] =
                gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
        }
    }

    /// The byte-wise FIPS-197 inverse cipher.
    fn decrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.rounds;
        Self::add_round_key(block, &self.round_key_bytes(nr));
        for round in (1..nr).rev() {
            Self::inv_shift_rows(block);
            self.inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_key_bytes(round));
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        self.inv_sub_bytes(block);
        Self::add_round_key(block, &self.round_key_bytes(0));
    }

    /// The FIPS-197 spec-form cipher (SubBytes, ShiftRows, MixColumns and
    /// AddRoundKey on a byte state), the reference the T-table rounds are
    /// tested against.
    #[cfg(test)]
    fn encrypt_block_reference(&self, block: &mut [u8; 16]) {
        fn sub_bytes(sbox: &[u8; 256], state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = sbox[*b as usize];
            }
        }
        fn shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                }
            }
        }
        fn mix_columns(state: &mut [u8; 16]) {
            for col in state.chunks_exact_mut(4) {
                let [a, b, c, d] = [col[0], col[1], col[2], col[3]];
                col[0] = xtime(a) ^ (xtime(b) ^ b) ^ c ^ d;
                col[1] = a ^ xtime(b) ^ (xtime(c) ^ c) ^ d;
                col[2] = a ^ b ^ xtime(c) ^ (xtime(d) ^ d);
                col[3] = (xtime(a) ^ a) ^ b ^ c ^ xtime(d);
            }
        }
        let nr = self.rounds;
        Self::add_round_key(block, &self.round_key_bytes(0));
        for round in 1..nr {
            sub_bytes(self.sbox, block);
            shift_rows(block);
            mix_columns(block);
            Self::add_round_key(block, &self.round_key_bytes(round));
        }
        sub_bytes(self.sbox, block);
        shift_rows(block);
        Self::add_round_key(block, &self.round_key_bytes(nr));
    }
}

macro_rules! aes_variant {
    ($name:ident, $key_len:expr, $doc:expr) => {
        #[doc = $doc]
        ///
        /// # Example
        ///
        /// ```
        /// use rsse_crypto::aes::Aes128;
        ///
        /// let cipher = Aes128::new(&[0u8; 16]);
        /// let mut block = [0u8; 16];
        /// cipher.encrypt_block(&mut block);
        /// cipher.decrypt_block(&mut block);
        /// assert_eq!(block, [0u8; 16]);
        /// ```
        #[derive(Clone)]
        pub struct $name {
            core: AesCore,
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), " {{ key: <redacted> }}"))
            }
        }

        impl $name {
            /// Expands `key` into round keys.
            ///
            /// # Panics
            ///
            /// Panics if `key.len() != ` the variant's key length.
            pub fn new(key: &[u8]) -> Self {
                assert_eq!(key.len(), $key_len, "wrong key length for AES");
                $name {
                    core: AesCore::new(key),
                }
            }

            /// Encrypts one 16-byte block in place.
            pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
                self.core.encrypt_block(block);
            }

            /// Encrypts each block in place, exactly as [`Self::encrypt_block`]
            /// would one by one, but two at a time with their rounds
            /// interleaved; an odd last block goes alone.
            pub fn encrypt_blocks(&self, blocks: &mut [[u8; BLOCK_LEN]]) {
                self.core.encrypt_blocks(blocks);
            }

            /// Decrypts one 16-byte block in place.
            pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
                self.core.decrypt_block(block);
            }
        }
    };
}

aes_variant!(Aes128, 16, "AES with a 128-bit key (10 rounds).");
aes_variant!(Aes256, 32, "AES with a 256-bit key (14 rounds).");

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // FIPS 197 Appendix C.1 (AES-128).
    #[test]
    fn fips197_aes128() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::new(&key);
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    // FIPS 197 Appendix C.3 (AES-256).
    #[test]
    fn fips197_aes256() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let cipher = Aes256::new(&key);
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    // NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn sp800_38a_ecb128() {
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        let mut block: [u8; 16] = from_hex("6bc1bee22e409f96e93d7e117393172a")
            .try_into()
            .unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn roundtrip_random_blocks() {
        let cipher = Aes128::new(&[0x42; 16]);
        for i in 0u8..32 {
            let mut block = [i; 16];
            let original = block;
            cipher.encrypt_block(&mut block);
            assert_ne!(block, original, "encryption must change the block");
            cipher.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    #[should_panic(expected = "wrong key length")]
    fn wrong_key_length_panics() {
        let _ = Aes128::new(&[0u8; 17]);
    }

    #[test]
    fn debug_redacts_key() {
        let c = Aes128::new(&[0u8; 16]);
        assert_eq!(format!("{c:?}"), "Aes128 { key: <redacted> }");
    }

    /// The T-table `encrypt_block` and the paired `encrypt_blocks` equal
    /// the spec-form cipher, block by block.
    fn assert_matches_reference(core: &AesCore, blocks: &[[u8; 16]]) {
        let reference: Vec<[u8; 16]> = blocks
            .iter()
            .map(|&b| {
                let mut b = b;
                core.encrypt_block_reference(&mut b);
                b
            })
            .collect();
        for (&block, want) in blocks.iter().zip(&reference) {
            let mut got = block;
            core.encrypt_block(&mut got);
            assert_eq!(&got, want, "encrypt_block");
        }
        let mut batch = blocks.to_vec();
        core.encrypt_blocks(&mut batch);
        assert_eq!(batch, reference, "encrypt_blocks, {} blocks", blocks.len());
    }

    #[test]
    fn reference_cipher_matches_fips197() {
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        AesCore::new(&from_hex("000102030405060708090a0b0c0d0e0f"))
            .encrypt_block_reference(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// AES-128: T-table rounds == spec-form rounds, for even and odd
        /// slice lengths.
        #[test]
        fn table_rounds_match_reference_aes128(
            key in any::<[u8; 16]>(),
            blocks in vec(any::<[u8; 16]>(), 0..9),
        ) {
            assert_matches_reference(&AesCore::new(&key), &blocks);
        }

        /// AES-256: as above, with the 14-round schedule.
        #[test]
        fn table_rounds_match_reference_aes256(
            key in any::<[u8; 32]>(),
            blocks in vec(any::<[u8; 16]>(), 0..9),
        ) {
            assert_matches_reference(&AesCore::new(&key), &blocks);
        }
    }
}
