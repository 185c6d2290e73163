//! The embedding store: token → vector, the artifact Leva ships to the
//! deployment stage. "Embedding outputs are stored as key-value pairs,
//! where keys are string tokens ... and values are floating-point embedding
//! vectors" (§6.5.2).
//!
//! Internally the store is dense: a slot table indexed by the interned
//! [`TokenId`] points into one flat row-major matrix, and token text stays
//! in the shared symbol table.
//! The pipeline bulk-builds through [`EmbeddingStore::insert_id`] /
//! [`EmbeddingStore::get_id`] with zero hashing; string-keyed access
//! ([`EmbeddingStore::insert`], [`EmbeddingStore::get`]) remains for the
//! serialization, deployment, and baseline boundaries.

use crate::json;
use leva_interner::codec::{crc32, ByteReader, ByteWriter, DecodeError};
use leva_interner::{Buf, LazyCheck, TokenId, TokenInterner};
use leva_linalg::{Matrix, Pca};
use std::sync::Arc;

/// Magic bytes of the standalone binary store file format.
const STORE_MAGIC: &[u8; 4] = b"LVST";
/// Version of the standalone binary store file format.
const STORE_VERSION: u32 = 1;

/// Slot value of a token without a vector.
const NO_ROW: u32 = u32::MAX;

/// A token → vector map with a fixed dimensionality, stored densely over
/// the interned `TokenId` space: a slot table from token id to row, and
/// one flat row-major `len × dim` matrix.
///
/// The matrix is a [`Buf`] (DESIGN.md §6.14): owned when the store was
/// fitted or decoded from bytes, a zero-copy view of the `STOR` chunk when
/// it was loaded from a mapped artifact. Writes copy a mapped matrix to
/// the heap first; reads never see the difference.
#[derive(Debug, Clone)]
pub struct EmbeddingStore {
    dim: usize,
    symbols: Arc<TokenInterner>,
    /// Token id → row of `rows`; `NO_ROW` for tokens without a vector
    /// (e.g. refined-away tokens or row names in value-only stores).
    slots: Vec<u32>,
    /// Row-major `len × dim` coordinates.
    rows: Buf<f64>,
    /// Number of rows (kept apart from `rows` so `dim == 0` stays exact).
    len: usize,
    /// Deferred `STOR` verification of a mapped matrix.
    check: LazyCheck,
}

/// A token was requested from a store that does not hold it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownTokenError {
    /// The missing token's text.
    pub token: String,
}

impl std::fmt::Display for UnknownTokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "token {:?} is not in the embedding store", self.token)
    }
}

impl std::error::Error for UnknownTokenError {}

/// An immutable borrowed view of a store's dense vector table, indexed by
/// interned [`TokenId`] (see [`EmbeddingStore::dense_view`]). `Copy`, so
/// hot loops can keep it in a register instead of re-borrowing the store.
#[derive(Debug, Clone, Copy)]
pub struct DenseView<'a> {
    store: &'a EmbeddingStore,
}

impl<'a> DenseView<'a> {
    /// Vector for an interned token — pure array indexing, no hashing.
    /// The returned slice borrows the store, not this view value.
    pub fn get(&self, id: TokenId) -> Option<&'a [f64]> {
        self.store.get_id(id)
    }

    /// Embedding dimensionality of the viewed store.
    pub fn dim(&self) -> usize {
        self.store.dim
    }
}

impl EmbeddingStore {
    /// Creates an empty store of dimension `dim` with its own (empty)
    /// symbol table.
    pub fn new(dim: usize) -> Self {
        Self::with_symbols(Arc::new(TokenInterner::new()), dim)
    }

    /// Creates an empty store of dimension `dim` sharing an existing symbol
    /// table — the pipeline path, where graph/corpus `TokenId`s index the
    /// store directly.
    pub fn with_symbols(symbols: Arc<TokenInterner>, dim: usize) -> Self {
        Self {
            dim,
            slots: vec![NO_ROW; symbols.len()],
            symbols,
            rows: Buf::default(),
            len: 0,
            check: LazyCheck::default(),
        }
    }

    /// True when coordinates are served zero-copy from a mapped artifact.
    pub fn is_mapped(&self) -> bool {
        self.rows.is_mapped()
    }

    /// Bytes of coordinate data resident on the heap: the slot table plus
    /// the matrix when it is owned.
    pub fn resident_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>() + self.rows.heap_bytes()
    }

    /// Bytes of coordinate data served from a file mapping (0 for owned
    /// stores) — the counterpart `/metrics` reports next to
    /// [`EmbeddingStore::resident_bytes`].
    pub fn mapped_bytes(&self) -> usize {
        self.rows.mapped_bytes()
    }

    /// Settles the deferred `STOR` CRC of a store loaded from a mapped
    /// artifact (first call hashes the payload; later calls are an atomic
    /// load). Always `true` when nothing was deferred; `false` means the
    /// loaded bytes do not match the artifact's checksum and must not be
    /// trusted.
    pub fn verify(&self) -> bool {
        self.check.settle(|| true)
    }

    /// Swaps in an *extension* of the current symbol table (same interner,
    /// grown append-only by delta ingestion — existing `TokenId`s keep
    /// their meaning). Panics if `symbols` is shorter than the current
    /// table, which can never be an extension.
    pub fn upgrade_symbols(&mut self, symbols: Arc<TokenInterner>) {
        assert!(
            symbols.len() >= self.symbols.len(),
            "replacement symbol table must extend the current one"
        );
        self.symbols = symbols;
        if self.slots.len() < self.symbols.len() {
            self.slots.resize(self.symbols.len(), NO_ROW);
        }
    }

    /// The symbol table this store resolves tokens through.
    pub fn symbols(&self) -> &Arc<TokenInterner> {
        &self.symbols
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no tokens are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a vector under a token string (boundary path: interns the
    /// token if needed). Panics if the dimension mismatches.
    pub fn insert(&mut self, token: impl AsRef<str>, vector: Vec<f64>) {
        let token = token.as_ref();
        // Avoid cloning a shared symbol table when the token is known.
        let id = match self.symbols.lookup(token) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.symbols).intern(token),
        };
        self.insert_id(id, &vector);
    }

    /// Inserts (or overwrites) the vector of an already-interned token —
    /// the zero-hash hot path, copying `vector` into the flat matrix.
    /// Panics if the dimension mismatches or the id is foreign to this
    /// store's symbol table.
    pub fn insert_id(&mut self, id: TokenId, vector: &[f64]) {
        assert_eq!(vector.len(), self.dim, "embedding dimension mismatch");
        assert!(
            id.index() < self.symbols.len(),
            "token id {id} outside the store's symbol table"
        );
        if self.slots.len() < self.symbols.len() {
            self.slots.resize(self.symbols.len(), NO_ROW);
        }
        let rows = self.rows.to_mut();
        match self.slots[id.index()] {
            NO_ROW => {
                self.slots[id.index()] = u32::try_from(self.len).expect("row count fits u32");
                rows.extend_from_slice(vector);
                self.len += 1;
            }
            row => {
                let start = row as usize * self.dim;
                rows[start..start + self.dim].copy_from_slice(vector);
            }
        }
    }

    /// Vector for a token string (one hash, then a dense index).
    pub fn get(&self, token: &str) -> Option<&[f64]> {
        self.get_id(self.symbols.lookup(token)?)
    }

    /// Vector for an interned token — pure array indexing.
    pub fn get_id(&self, id: TokenId) -> Option<&[f64]> {
        let &row = self.slots.get(id.index())?;
        (row != NO_ROW).then(|| self.row(row))
    }

    fn row(&self, row: u32) -> &[f64] {
        let start = row as usize * self.dim;
        &self.rows[start..start + self.dim]
    }

    /// Borrowed dense view over the vector table for bulk token-id lookups
    /// (the serving featurizer's cache build does one per graph node). The
    /// view's lookups return slices borrowing the *store*, so gathered
    /// references outlive any one `get` call.
    pub fn dense_view(&self) -> DenseView<'_> {
        DenseView { store: self }
    }

    /// Vector for a token, with a typed error instead of `None` when the
    /// token is missing.
    pub fn try_get(&self, token: &str) -> Result<&[f64], UnknownTokenError> {
        self.get(token).ok_or_else(|| UnknownTokenError {
            token: token.to_owned(),
        })
    }

    /// True when the token is present.
    pub fn contains(&self, token: &str) -> bool {
        self.get(token).is_some()
    }

    /// Iterates `(token, vector)` in token-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.iter_ids()
            .map(|(id, vec)| (self.symbols.resolve(id), vec))
    }

    /// Iterates `(id, vector)` in token-id order — the hashing-free dual of
    /// [`EmbeddingStore::iter`] used by bulk consumers (the codecs).
    pub fn iter_ids(&self) -> impl Iterator<Item = (TokenId, &[f64])> {
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != NO_ROW)
            .map(|(i, &row)| (TokenId::from_index(i), self.row(row)))
    }

    /// Tokens sorted lexicographically (deterministic order for exports).
    pub fn sorted_tokens(&self) -> Vec<&str> {
        let mut t: Vec<&str> = self.iter().map(|(tok, _)| tok).collect();
        t.sort_unstable();
        t
    }

    /// `(token, id, vector)` triples in sorted-token order — the
    /// deterministic iteration behind exports and PCA.
    fn sorted_entries(&self) -> Vec<(&str, TokenId, &[f64])> {
        let mut entries: Vec<(&str, TokenId, &[f64])> = self
            .iter_ids()
            .map(|(id, vec)| (self.symbols.resolve(id), id, vec))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Estimated heap bytes of the dense vector table (slot array plus an
    /// owned matrix); mapped stores report only their resident slot table.
    /// The shared symbol table is accounted separately via
    /// `symbols().estimated_bytes()`.
    pub fn estimated_bytes(&self) -> usize {
        self.resident_bytes()
    }

    /// Projects every vector to `k` dimensions with PCA fitted on the store
    /// itself (Table 7: compress without retraining). Returns a new store
    /// sharing this store's symbol table.
    pub fn pca_project(&self, k: usize) -> EmbeddingStore {
        if self.is_empty() {
            return EmbeddingStore::with_symbols(Arc::clone(&self.symbols), k.min(self.dim));
        }
        let entries = self.sorted_entries();
        let mut data = Matrix::zeros(entries.len(), self.dim);
        for (i, (_, _, vec)) in entries.iter().enumerate() {
            data.row_mut(i).copy_from_slice(vec);
        }
        let pca = Pca::fit(&data, k);
        let projected = pca.transform(&data);
        let mut out = EmbeddingStore::with_symbols(Arc::clone(&self.symbols), projected.cols());
        for (i, (_, id, _)) in entries.iter().enumerate() {
            out.insert_id(*id, projected.row(i));
        }
        out
    }

    /// Serializes to a JSON string. Tokens are emitted in sorted order, so
    /// the output is deterministic and diff-friendly. This is one of the
    /// few places token text is materialized.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.estimated_bytes() / 2);
        out.push_str("{\"dim\":");
        out.push_str(&self.dim.to_string());
        out.push_str(",\"vectors\":{");
        for (i, (token, _, vector)) in self.sorted_entries().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(&mut out, token);
            out.push_str(":[");
            for (j, &v) in vector.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::write_f64(&mut out, v);
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }

    /// Deserializes from JSON produced by [`EmbeddingStore::to_json`].
    pub fn from_json(s: &str) -> Result<EmbeddingStore, StoreJsonError> {
        let value = json::parse(s)?;
        let obj = value
            .as_object()
            .ok_or(StoreJsonError::Shape("top-level must be an object"))?;
        let dim = obj
            .iter()
            .find(|(k, _)| k == "dim")
            .and_then(|(_, v)| v.as_f64())
            .ok_or(StoreJsonError::Shape("missing numeric \"dim\""))?;
        if dim < 0.0 || dim.fract() != 0.0 {
            return Err(StoreJsonError::Shape(
                "\"dim\" must be a non-negative integer",
            ));
        }
        let mut store = EmbeddingStore::new(dim as usize);
        let vectors = obj
            .iter()
            .find(|(k, _)| k == "vectors")
            .and_then(|(_, v)| v.as_object())
            .ok_or(StoreJsonError::Shape("missing \"vectors\" object"))?;
        for (token, vec_value) in vectors {
            let arr = vec_value
                .as_array()
                .ok_or(StoreJsonError::Shape("vector must be an array"))?;
            let mut vector = Vec::with_capacity(arr.len());
            for v in arr {
                vector.push(
                    v.as_f64_or_null()
                        .ok_or(StoreJsonError::Shape("vector entries must be numbers"))?,
                );
            }
            if vector.len() != store.dim {
                return Err(StoreJsonError::Shape("vector length differs from \"dim\""));
            }
            store.insert(token, vector);
        }
        Ok(store)
    }

    /// Serializes the dense vector table as `dim | count | (id, dim × f64
    /// bits)` entries in id order — the row-wise layout of the standalone
    /// `LVST` store file. The symbol table is stored separately; vectors
    /// round-trip bit-exactly.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.dim).expect("dimension fits u32"));
        w.put_u32(u32::try_from(self.len).expect("vector count fits u32"));
        for (id, vec) in self.iter_ids() {
            w.put_u32(id.raw());
            w.put_f64_slice(vec);
        }
    }

    /// Serializes the dense vector table in the aligned `STOR` layout of
    /// the model artifact: `u32 dim | u32 count | count ascending u32 ids |
    /// pad-to-8 | count × dim f64 matrix`. Framed at an 8-aligned payload
    /// offset, the matrix can be served zero-copy out of a file mapping
    /// (the header is 8 bytes, so the id array starts aligned and the pad
    /// realigns the matrix).
    pub fn encode_aligned_into(&self, w: &mut ByteWriter) {
        w.put_u32(u32::try_from(self.dim).expect("dimension fits u32"));
        w.put_u32(u32::try_from(self.len).expect("vector count fits u32"));
        for (id, _) in self.iter_ids() {
            w.put_u32(id.raw());
        }
        w.pad_to(8);
        for (_, vec) in self.iter_ids() {
            w.put_f64_slice(vec);
        }
    }

    /// Decodes a whole `STOR` payload (see
    /// [`EmbeddingStore::encode_aligned_into`]) — the one decoder for
    /// every load path.
    ///
    /// Validates the geometry — id range and ordering, padding, the exact
    /// payload length — in `O(count)`, independent of `dim`. The matrix
    /// becomes a [`Buf`]: a zero-copy view when `check` defers the CRC of
    /// a payload inside a file mapping (and the address allows it), an
    /// owned little-endian decode otherwise. `check` travels with the
    /// store and settles on [`EmbeddingStore::verify`].
    pub fn decode_aligned(
        payload: &[u8],
        symbols: Arc<TokenInterner>,
        check: LazyCheck,
    ) -> Result<EmbeddingStore, DecodeError> {
        let mut r = ByteReader::new(payload);
        let dim = r.take_u32()? as usize;
        // Each entry needs 4 id bytes + dim×8 matrix bytes downstream.
        let per_entry = dim
            .checked_mul(8)
            .and_then(|b| b.checked_add(4))
            .ok_or(DecodeError::LengthOverflow)?;
        let len = r.take_count(per_entry)?;
        let mut slots = vec![NO_ROW; symbols.len()];
        let mut prev: Option<u32> = None;
        for row in 0..len {
            let id = r.take_u32()?;
            if (id as usize) >= symbols.len() {
                return Err(DecodeError::Invalid("store token outside symbol table"));
            }
            if prev.is_some_and(|p| p >= id) {
                return Err(DecodeError::Invalid("store ids not strictly ascending"));
            }
            prev = Some(id);
            slots[id as usize] = row as u32;
        }
        r.pad_to(8)?;
        let matrix_bytes = len
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or(DecodeError::LengthOverflow)?;
        if r.remaining() != matrix_bytes {
            return Err(DecodeError::Invalid("STOR payload length mismatch"));
        }
        let rows = Buf::from_le_bytes(r.take_raw(matrix_bytes)?, check.map());
        Ok(EmbeddingStore {
            dim,
            symbols,
            slots,
            rows,
            len,
            check,
        })
    }

    /// Decodes a store against an existing symbol table, validating the
    /// declared entry count against the remaining buffer before allocating
    /// and range-checking every token id.
    pub fn decode_with_symbols(
        r: &mut ByteReader<'_>,
        symbols: Arc<TokenInterner>,
    ) -> Result<EmbeddingStore, DecodeError> {
        let dim = r.take_u32()? as usize;
        let per_entry = dim
            .checked_mul(8)
            .and_then(|b| b.checked_add(4))
            .ok_or(DecodeError::LengthOverflow)?;
        let count = r.take_count(per_entry)?;
        let mut store = EmbeddingStore::with_symbols(symbols, dim);
        for _ in 0..count {
            let id = r.take_u32()? as usize;
            if id >= store.symbols.len() {
                return Err(DecodeError::Invalid("store token outside symbol table"));
            }
            let vec = Buf::<f64>::from_le_bytes(r.take_raw(dim * 8)?, None);
            let id = TokenId::from_index(id);
            if store.get_id(id).is_some() {
                return Err(DecodeError::Invalid("duplicate store entry"));
            }
            store.insert_id(id, &vec);
        }
        Ok(store)
    }

    /// Serializes the store (symbol table + vectors) into the standalone
    /// binary file format: `LVST | u32 version | u32 crc32 | payload`, the
    /// same bounded codec substrate as the model artifact. Vectors
    /// round-trip bit-exactly, unlike the JSON export (which loses NaN
    /// payloads and ±inf to `null`).
    pub fn to_store_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        self.symbols.encode_into(&mut payload);
        self.encode_into(&mut payload);
        let payload = payload.into_bytes();
        let mut w = ByteWriter::with_capacity(payload.len() + 12);
        w.put_raw(STORE_MAGIC);
        w.put_u32(STORE_VERSION);
        w.put_u32(crc32(&payload));
        w.put_raw(&payload);
        w.into_bytes()
    }

    /// Decodes a store written by [`EmbeddingStore::to_store_bytes`].
    /// Strictly bounded: every declared length is validated against the
    /// remaining buffer before allocation, and every failure is a typed
    /// [`StoreFileError`] — including a dedicated message when the bytes
    /// look like the deprecated JSON store format.
    pub fn from_store_bytes(bytes: &[u8]) -> Result<EmbeddingStore, StoreFileError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take_raw(4).map_err(StoreFileError::Decode)?;
        if magic != STORE_MAGIC {
            return Err(StoreFileError::BadMagic {
                looks_like_legacy_json: bytes.first() == Some(&b'{'),
            });
        }
        let version = r.take_u32().map_err(StoreFileError::Decode)?;
        if version != STORE_VERSION {
            return Err(StoreFileError::UnsupportedVersion(version));
        }
        let crc = r.take_u32().map_err(StoreFileError::Decode)?;
        let payload = r.take_raw(r.remaining()).map_err(StoreFileError::Decode)?;
        if crc32(payload) != crc {
            return Err(StoreFileError::ChecksumMismatch);
        }
        let mut r = ByteReader::new(payload);
        let symbols = Arc::new(TokenInterner::decode(&mut r).map_err(StoreFileError::Decode)?);
        let store =
            EmbeddingStore::decode_with_symbols(&mut r, symbols).map_err(StoreFileError::Decode)?;
        if !r.is_exhausted() {
            return Err(StoreFileError::Decode(DecodeError::Invalid(
                "trailing bytes after store payload",
            )));
        }
        Ok(store)
    }

    /// Writes the store to a file in the binary `LVST` format
    /// (see [`EmbeddingStore::to_store_bytes`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), StoreFileError> {
        std::fs::write(path, self.to_store_bytes()).map_err(StoreFileError::Io)
    }

    /// Loads a store saved by [`EmbeddingStore::save`]. Files in the
    /// deprecated JSON format are rejected with a migration hint — read
    /// those with [`EmbeddingStore::from_json`] and re-save.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<EmbeddingStore, StoreFileError> {
        Self::from_store_bytes(&std::fs::read(path).map_err(StoreFileError::Io)?)
    }
}

/// Errors produced while reading or writing a standalone store file.
#[derive(Debug)]
pub enum StoreFileError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The buffer does not start with the `LVST` magic bytes.
    BadMagic {
        /// True when the bytes look like the deprecated JSON store format
        /// (pre-binary `save`), which must be migrated via
        /// [`EmbeddingStore::from_json`].
        looks_like_legacy_json: bool,
    },
    /// The file was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The payload does not match its CRC-32 header.
    ChecksumMismatch,
    /// The payload failed bounded decoding.
    Decode(DecodeError),
}

impl std::fmt::Display for StoreFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store file I/O error: {e}"),
            Self::BadMagic {
                looks_like_legacy_json: true,
            } => write!(
                f,
                "not a binary embedding store (bad magic): this looks like the \
                 deprecated JSON store format — load it with \
                 EmbeddingStore::from_json and re-save to migrate"
            ),
            Self::BadMagic { .. } => {
                write!(f, "not a binary embedding store (bad magic)")
            }
            Self::UnsupportedVersion(v) => write!(f, "unsupported store file version {v}"),
            Self::ChecksumMismatch => write!(f, "store payload failed its CRC-32 check"),
            Self::Decode(e) => write!(f, "store payload failed to decode: {e}"),
        }
    }
}

impl std::error::Error for StoreFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Decode(e) => Some(e),
            _ => None,
        }
    }
}

/// Errors produced while decoding an embedding-store JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreJsonError {
    /// The text is not syntactically valid JSON.
    Syntax {
        /// Byte offset of the failure.
        offset: usize,
    },
    /// The JSON parses but does not have the embedding-store shape.
    Shape(&'static str),
}

impl std::fmt::Display for StoreJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Syntax { offset } => write!(f, "invalid JSON at byte {offset}"),
            Self::Shape(msg) => write!(f, "unexpected embedding-store JSON shape: {msg}"),
        }
    }
}

impl std::error::Error for StoreJsonError {}

impl From<json::ParseError> for StoreJsonError {
    fn from(e: json::ParseError) -> Self {
        Self::Syntax { offset: e.offset }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EmbeddingStore {
        let mut s = EmbeddingStore::new(3);
        s.insert("a", vec![1.0, 0.0, 0.0]);
        s.insert("b", vec![0.0, 1.0, 0.0]);
        s.insert("c", vec![0.0, 0.0, 1.0]);
        s
    }

    #[test]
    fn insert_and_get() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("a"), Some([1.0, 0.0, 0.0].as_slice()));
        assert_eq!(s.get("z"), None);
        assert!(s.contains("b"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut s = EmbeddingStore::new(3);
        s.insert("a", vec![1.0]);
    }

    #[test]
    fn sorted_tokens_deterministic() {
        let s = store();
        assert_eq!(s.sorted_tokens(), vec!["a", "b", "c"]);
    }

    #[test]
    fn dense_view_matches_store_lookups() {
        let s = store();
        let view = s.dense_view();
        assert_eq!(view.dim(), s.dim());
        for token in ["a", "b", "c"] {
            let id = s.symbols().lookup(token).unwrap();
            assert_eq!(view.get(id), s.get_id(id));
        }
        // Out-of-range ids are None, never a panic; the view is Copy and
        // its slices outlive any particular copy.
        assert_eq!(view.get(TokenId::from_index(999)), None);
        let grabbed = { view.get(s.symbols().lookup("a").unwrap()).unwrap() };
        assert_eq!(grabbed, [1.0, 0.0, 0.0].as_slice());
    }

    #[test]
    fn pca_projection_reduces_dim() {
        let s = store();
        let p = s.pca_project(2);
        assert_eq!(p.dim(), 2);
        assert_eq!(p.len(), 3);
        assert_eq!(p.get("a").unwrap().len(), 2);
    }

    #[test]
    fn json_roundtrip() {
        let s = store();
        let j = s.to_json();
        let back = EmbeddingStore::from_json(&j).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get("b"), s.get("b"));
        assert_eq!(back.dim(), 3);
    }

    #[test]
    fn file_roundtrip() {
        let s = store();
        let dir = std::env::temp_dir().join("leva_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("emb.lvst");
        s.save(&path).unwrap();
        let back = EmbeddingStore::load(&path).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.get("c"), s.get("c"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = EmbeddingStore::load("/definitely/not/a/file.lvst").unwrap_err();
        assert!(matches!(err, StoreFileError::Io(_)), "{err}");
    }

    /// The binary store file round-trips bit-exactly (including NaN
    /// payloads and ±inf, which the JSON export cannot represent).
    #[test]
    fn store_file_round_trips_bit_exactly() {
        let mut s = EmbeddingStore::new(2);
        s.insert("a", vec![f64::NAN, f64::INFINITY]);
        s.insert("b", vec![-0.0, 2.0_f64.powi(-1022)]);
        let bytes = s.to_store_bytes();
        let back = EmbeddingStore::from_store_bytes(&bytes).unwrap();
        assert_eq!(back.len(), s.len());
        assert_eq!(back.dim(), s.dim());
        for token in ["a", "b"] {
            for (x, y) in s.get(token).unwrap().iter().zip(back.get(token).unwrap()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Fixed point: re-encoding the loaded store reproduces the bytes.
        assert_eq!(back.to_store_bytes(), bytes);
    }

    /// A file in the deprecated JSON format is rejected with a migration
    /// hint, not a generic decode error.
    #[test]
    fn legacy_json_store_gets_migration_hint() {
        let s = store();
        let err = EmbeddingStore::from_store_bytes(s.to_json().as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreFileError::BadMagic {
                    looks_like_legacy_json: true
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("from_json"), "{err}");
        // Arbitrary non-store bytes get the plain bad-magic error.
        let err = EmbeddingStore::from_store_bytes(b"ELF\x7f....").unwrap_err();
        assert!(
            matches!(
                err,
                StoreFileError::BadMagic {
                    looks_like_legacy_json: false
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn store_file_rejects_corruption() {
        let s = store();
        let bytes = s.to_store_bytes();
        // Every truncation is a typed error.
        for cut in 0..bytes.len() {
            assert!(
                EmbeddingStore::from_store_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
        // Any payload bit flip trips the CRC.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            EmbeddingStore::from_store_bytes(&flipped).unwrap_err(),
            StoreFileError::ChecksumMismatch | StoreFileError::Decode(_)
        ));
        // Version bumps are rejected.
        let mut vbump = bytes.clone();
        vbump[4] = 9;
        assert!(matches!(
            EmbeddingStore::from_store_bytes(&vbump).unwrap_err(),
            StoreFileError::UnsupportedVersion(9)
        ));
        // Trailing bytes after the payload are rejected (CRC covers the
        // declared payload, so extend-and-refresh is the hostile case).
        let mut trailing = s.to_store_bytes();
        trailing.push(0);
        assert!(EmbeddingStore::from_store_bytes(&trailing).is_err());
    }

    #[test]
    fn empty_store_pca_is_safe() {
        let s = EmbeddingStore::new(5);
        let p = s.pca_project(2);
        assert!(p.is_empty());
    }

    #[test]
    fn try_get_surfaces_typed_error() {
        let s = store();
        assert!(s.try_get("a").is_ok());
        let err = s.try_get("nope").unwrap_err();
        assert_eq!(err.token, "nope");
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn overwriting_a_token_does_not_inflate_len() {
        let mut s = EmbeddingStore::new(2);
        s.insert("a", vec![1.0, 2.0]);
        s.insert("a", vec![3.0, 4.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("a"), Some([3.0, 4.0].as_slice()));
    }

    /// Dense `insert_id`/`get_id` over a shared symbol table is equivalent
    /// to the old string-keyed behaviour.
    #[test]
    fn dense_index_equivalent_to_string_keyed() {
        let mut symbols = TokenInterner::new();
        let tokens = ["row::t::0", "alpha", "beta", "gamma", "row::t::1"];
        let ids: Vec<TokenId> = tokens.iter().map(|t| symbols.intern(t)).collect();
        let symbols = Arc::new(symbols);

        let mut dense = EmbeddingStore::with_symbols(Arc::clone(&symbols), 2);
        let mut stringly = EmbeddingStore::new(2);
        for (i, (&tok, &id)) in tokens.iter().zip(&ids).enumerate() {
            let v = vec![i as f64, -(i as f64)];
            dense.insert_id(id, &v);
            stringly.insert(tok, v);
        }

        assert_eq!(dense.len(), stringly.len());
        assert_eq!(dense.sorted_tokens(), stringly.sorted_tokens());
        for (&tok, &id) in tokens.iter().zip(&ids) {
            assert_eq!(dense.get(tok), stringly.get(tok));
            assert_eq!(dense.get_id(id), dense.get(tok));
        }
        assert_eq!(dense.to_json(), stringly.to_json());
    }

    #[test]
    fn binary_codec_round_trips_bit_exactly() {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = ["a", "b", "skip", "c"]
            .iter()
            .map(|t| symbols.intern(t))
            .collect();
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 2);
        s.insert_id(ids[0], &[1.5, -0.0]);
        s.insert_id(ids[1], &[f64::NAN, 2.0_f64.powi(-1022)]);
        s.insert_id(ids[3], &[f64::INFINITY, -3.25]);
        let mut w = ByteWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = EmbeddingStore::decode_with_symbols(&mut r, Arc::clone(&symbols)).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.len(), s.len());
        assert_eq!(back.dim(), s.dim());
        for &id in &ids {
            match (s.get_id(id), back.get_id(id)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                other => panic!("presence mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn binary_codec_rejects_hostile_buffers() {
        let mut symbols = TokenInterner::new();
        let id = symbols.intern("a");
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 4);
        s.insert_id(id, &[1.0; 4]);
        let mut w = ByteWriter::new();
        s.encode_into(&mut w);
        let bytes = w.into_bytes();
        // Every truncation errors.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(EmbeddingStore::decode_with_symbols(&mut r, Arc::clone(&symbols)).is_err());
        }
        // Inflated count: claims a million entries in a 12-byte buffer.
        let mut w = ByteWriter::new();
        w.put_u32(4);
        w.put_u32(1_000_000);
        w.put_u32(0);
        let b = w.into_bytes();
        let mut r = ByteReader::new(&b);
        assert_eq!(
            EmbeddingStore::decode_with_symbols(&mut r, Arc::clone(&symbols)).unwrap_err(),
            DecodeError::LengthOverflow
        );
        // Id outside the symbol table.
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(1);
        w.put_u32(77);
        w.put_f64(0.0);
        let b = w.into_bytes();
        let mut r = ByteReader::new(&b);
        assert!(matches!(
            EmbeddingStore::decode_with_symbols(&mut r, Arc::clone(&symbols)).unwrap_err(),
            DecodeError::Invalid(_)
        ));
    }

    #[test]
    fn shared_symbols_survive_boundary_inserts() {
        let mut symbols = TokenInterner::new();
        symbols.intern("known");
        let symbols = Arc::new(symbols);
        let mut s = EmbeddingStore::with_symbols(Arc::clone(&symbols), 1);
        // Inserting a token absent from the shared table forks the store's
        // copy (copy-on-write) without touching the original.
        s.insert("novel", vec![1.0]);
        assert!(s.contains("novel"));
        assert_eq!(symbols.lookup("novel"), None);
        assert_eq!(s.symbols().len(), 2);
    }

    /// A store over a shared table with one token left without a vector,
    /// inserted out of id order (rows land in insertion order).
    fn sparse_store() -> EmbeddingStore {
        let mut symbols = TokenInterner::new();
        let ids: Vec<TokenId> = ["a", "b", "skip", "c"]
            .iter()
            .map(|t| symbols.intern(t))
            .collect();
        let mut s = EmbeddingStore::with_symbols(Arc::new(symbols), 3);
        s.insert_id(ids[3], &[f64::INFINITY, -3.25, 0.5]);
        s.insert_id(ids[0], &[1.5, -0.0, f64::NAN]);
        s.insert_id(ids[1], &[2.0_f64.powi(-1022), 7.0, -1.0]);
        s
    }

    fn aligned_bytes(s: &EmbeddingStore) -> Vec<u8> {
        let mut w = ByteWriter::new();
        s.encode_aligned_into(&mut w);
        w.into_bytes()
    }

    fn assert_same_vectors(a: &EmbeddingStore, b: &EmbeddingStore) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        for (id, _) in a.symbols().iter() {
            match (a.get_id(id), b.get_id(id)) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    for (p, q) in x.iter().zip(y) {
                        assert_eq!(p.to_bits(), q.to_bits());
                    }
                }
                other => panic!("presence mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn aligned_codec_round_trips_to_an_owned_store() {
        let s = sparse_store();
        let bytes = aligned_bytes(&s);
        let back =
            EmbeddingStore::decode_aligned(&bytes, Arc::clone(s.symbols()), LazyCheck::default())
                .unwrap();
        assert!(!back.is_mapped());
        assert!(back.verify());
        assert_same_vectors(&s, &back);
        assert_eq!(aligned_bytes(&back), bytes, "codec is not a fixed point");
        for cut in 0..bytes.len() {
            let r = EmbeddingStore::decode_aligned(
                &bytes[..cut],
                Arc::clone(s.symbols()),
                LazyCheck::default(),
            );
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    /// A `STOR` payload inside a mapping is viewed in place, verified
    /// lazily, and copied to the heap on the first write only.
    #[test]
    fn mapped_payload_is_viewed_checked_lazily_and_copied_on_write() {
        let s = sparse_store();
        let bytes = aligned_bytes(&s);
        let path = std::env::temp_dir().join(format!("leva_stor_{}.bin", std::process::id()));
        let mut file = bytes.clone();
        file.extend_from_slice(&bytes);
        let last = file.len() - 1;
        file[last] ^= 0x01; // the second copy's matrix is corrupt
        std::fs::write(&path, &file).unwrap();
        let map = Arc::new(leva_interner::MmapFile::open(&path).unwrap());
        let n = bytes.len();
        let decode = |offset: usize| {
            let check = LazyCheck::crc(&map, offset, n, crc32(&bytes));
            EmbeddingStore::decode_aligned(&map[offset..offset + n], Arc::clone(s.symbols()), check)
                .unwrap()
        };

        let mut good = decode(0);
        if cfg!(all(unix, target_endian = "little")) {
            assert!(good.is_mapped());
            assert_eq!(good.mapped_bytes(), 3 * 3 * 8);
        }
        assert!(good.verify());
        assert_same_vectors(&s, &good);
        let c = s.symbols().lookup("c").unwrap();
        good.insert_id(c, &[0.0, 0.0, 0.0]);
        assert!(!good.is_mapped());
        assert_eq!(good.get_id(c), Some([0.0, 0.0, 0.0].as_slice()));

        let bad = decode(n);
        assert!(!bad.verify(), "flipped matrix bit must fail the settle");
        assert!(!bad.clone().verify(), "the verdict is shared by clones");
        drop((good, bad, map));
        std::fs::remove_file(&path).ok();
    }
}
