//! One numeric buffer for every large array a model holds (DESIGN.md
//! §6.14): the embedding matrix and the graph's CSR arrays.
//!
//! A [`Buf`] either owns a `Vec<T>` or views a range of an
//! `Arc<MmapFile>` in place, and copies itself to owned on the first
//! write ([`Buf::to_mut`]). Readers only ever see `&[T]`, so no caller
//! matches on where the numbers live. A view is built only when the bytes
//! really are a kernel mapping, the host is little-endian, and the *actual
//! address* is aligned for `T`; every other source decodes the same
//! little-endian bytes into an owned buffer.
//!
//! [`LazyCheck`] is the verification state that travels with such a
//! buffer: nothing pending (the bytes were checked when they were
//! decoded), or a CRC-32 over a mapped chunk that settles on first use,
//! exactly once, with the verdict cached across clones.

use crate::codec::crc32;
use crate::MmapFile;
use std::ops::Deref;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
    impl Sealed for f64 {}
}

/// Element types a [`Buf`] may hold: plain little-endian words for which
/// every bit pattern is a valid value (sealed: `u32`, `u64`, `f64`).
pub trait Scalar: Copy + std::fmt::Debug + Send + Sync + 'static + sealed::Sealed {
    /// Decodes one element from exactly `size_of::<Self>()` LE bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

impl Scalar for u32 {
    fn from_le(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4-byte word"))
    }
}

impl Scalar for u64 {
    fn from_le(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
    }
}

impl Scalar for f64 {
    fn from_le(bytes: &[u8]) -> Self {
        f64::from_bits(<u64 as Scalar>::from_le(bytes))
    }
}

/// A `[T]` that is either owned or a zero-copy view into a file mapping.
#[derive(Debug, Clone)]
pub struct Buf<T: Scalar> {
    repr: Repr<T>,
}

#[derive(Debug, Clone)]
enum Repr<T> {
    Owned(Vec<T>),
    /// `len` elements starting `offset` bytes into `map`; the constructor
    /// checked bounds and the address alignment of `T`.
    Mapped {
        map: Arc<MmapFile>,
        offset: usize,
        len: usize,
    },
}

impl<T: Scalar> Buf<T> {
    /// Buffer over `bytes`, a whole number of little-endian `T` words.
    ///
    /// When `map` is given and `bytes` lies inside it, the result views
    /// the mapping in place — provided the mapping is a real kernel
    /// mapping, the host is little-endian and `bytes` starts at an address
    /// aligned for `T`. Otherwise the words are decoded into an owned
    /// buffer with identical values. Trailing bytes short of a whole word
    /// are ignored (callers size `bytes` exactly).
    pub fn from_le_bytes(bytes: &[u8], map: Option<&Arc<MmapFile>>) -> Self {
        let size = std::mem::size_of::<T>();
        let len = bytes.len() / size;
        if let Some(map) = map {
            let aligned = (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>());
            if cfg!(target_endian = "little") && map.is_mapped() && aligned {
                if let Some(offset) = map.offset_of(bytes) {
                    return Buf {
                        repr: Repr::Mapped {
                            map: Arc::clone(map),
                            offset,
                            len,
                        },
                    };
                }
            }
        }
        Buf {
            repr: Repr::Owned(
                bytes[..len * size]
                    .chunks_exact(size)
                    .map(T::from_le)
                    .collect(),
            ),
        }
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Owned(v) => v,
            // SAFETY: `from_le_bytes` built this view only after checking
            // that `len` elements from `offset` lie inside the mapping, that
            // the address is aligned for `T`, and that the host is
            // little-endian. `T` is sealed to plain words where every bit
            // pattern is valid, and the `Arc` keeps the read-only mapping
            // alive for as long as the returned borrow of `self`.
            Repr::Mapped { map, offset, len } => unsafe {
                std::slice::from_raw_parts(map.as_ptr().add(*offset) as *const T, *len)
            },
        }
    }

    /// Mutable access, copying a mapped view to an owned `Vec` first
    /// (copy on first write; the mapping itself is never written).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if self.is_mapped() {
            self.repr = Repr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => unreachable!("copied to owned above"),
        }
    }

    /// True when the elements are served in place from a file mapping.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Mapped { .. })
    }

    /// Bytes of elements held on the heap (0 for a mapped view).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(v) => std::mem::size_of_val(v.as_slice()),
            Repr::Mapped { .. } => 0,
        }
    }

    /// Bytes of elements served from the mapping (0 when owned).
    pub fn mapped_bytes(&self) -> usize {
        match &self.repr {
            Repr::Owned(_) => 0,
            Repr::Mapped { len, .. } => len * std::mem::size_of::<T>(),
        }
    }
}

impl<T: Scalar> Default for Buf<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

impl<T: Scalar> From<Vec<T>> for Buf<T> {
    fn from(v: Vec<T>) -> Self {
        Buf {
            repr: Repr::Owned(v),
        }
    }
}

impl<T: Scalar> Deref for Buf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

const UNCHECKED: u8 = 0;
const OK: u8 = 1;
const BAD: u8 = 2;

/// Deferred verification of one artifact chunk.
///
/// Either nothing is pending ([`LazyCheck::default`], for bytes that were
/// checked as they were decoded) or a CRC-32 over a chunk payload inside a
/// file mapping still is ([`LazyCheck::crc`]). [`LazyCheck::settle`] runs
/// the pending check once — the CRC and any caller-side structural check —
/// and every later call, on this value or a clone, reads the cached
/// verdict.
#[derive(Debug, Clone, Default)]
pub struct LazyCheck {
    pending: Option<Arc<Pending>>,
}

#[derive(Debug)]
struct Pending {
    map: Arc<MmapFile>,
    offset: usize,
    len: usize,
    crc: u32,
    state: AtomicU8,
}

impl LazyCheck {
    /// Defers the check that `len` bytes at `offset` of `map` hash to
    /// `crc`. The range must lie inside the mapping (the artifact walker
    /// sliced it from there); an out-of-range one settles as bad.
    pub fn crc(map: &Arc<MmapFile>, offset: usize, len: usize, crc: u32) -> Self {
        LazyCheck {
            pending: Some(Arc::new(Pending {
                map: Arc::clone(map),
                offset,
                len,
                crc,
                state: AtomicU8::new(UNCHECKED),
            })),
        }
    }

    /// The mapping whose bytes a check was deferred over (settled or not),
    /// if any. Decoders view their arrays in place only out of this
    /// mapping, and run their structural checks eagerly when there is none.
    pub fn map(&self) -> Option<&Arc<MmapFile>> {
        self.pending.as_ref().map(|p| &p.map)
    }

    /// Settles the deferred check: on first call the CRC is computed and,
    /// when it matches, `also` runs; the verdict is cached. `true` means
    /// the chunk can be trusted. With nothing deferred this is `true` and
    /// `also` never runs.
    pub fn settle(&self, also: impl FnOnce() -> bool) -> bool {
        let Some(p) = &self.pending else {
            return true;
        };
        match p.state.load(Ordering::Acquire) {
            OK => true,
            BAD => false,
            _ => {
                let ok = p
                    .offset
                    .checked_add(p.len)
                    .and_then(|end| p.map.get(p.offset..end))
                    .is_some_and(|payload| crc32(payload) == p.crc)
                    && also();
                p.state.store(if ok { OK } else { BAD }, Ordering::Release);
                ok
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("leva-buf-{name}-{}", std::process::id()))
    }

    fn le_words(values: &[f64]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    const VALUES: [f64; 4] = [1.5, -0.0, f64::INFINITY, 2.0e-308];

    fn assert_same_bits(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn plain_bytes_decode_to_owned() {
        let bytes = le_words(&VALUES);
        let buf = Buf::<f64>::from_le_bytes(&bytes, None);
        assert!(!buf.is_mapped());
        assert_same_bits(&buf, &VALUES);
        assert_eq!(buf.heap_bytes(), 32);
        assert_eq!(buf.mapped_bytes(), 0);
    }

    /// Soundness: a source at an odd address must never become a typed
    /// view — neither plain heap bytes nor a real mapping read at an odd
    /// offset. Both come back owned with identical values.
    #[test]
    fn odd_address_decodes_to_owned_with_identical_values() {
        let mut heap = vec![0u8; 1];
        heap.extend(le_words(&VALUES));
        let odd = &heap[1..];
        assert_eq!(
            odd.as_ptr() as usize % 2,
            1,
            "fixture must sit at an odd address"
        );
        let buf = Buf::<f64>::from_le_bytes(odd, None);
        assert!(!buf.is_mapped());
        assert_same_bits(&buf, &VALUES);

        let path = temp_path("odd");
        std::fs::write(&path, &heap).unwrap();
        let map = Arc::new(MmapFile::open(&path).unwrap());
        let odd = &map[1..];
        assert_eq!(odd.as_ptr() as usize % 2, 1);
        let buf = Buf::<f64>::from_le_bytes(odd, Some(&map));
        assert!(!buf.is_mapped(), "misaligned mapping must not be viewed");
        assert_same_bits(&buf, &VALUES);
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn aligned_mapping_is_viewed_and_copies_on_first_write() {
        let mut file = vec![0u8; 8];
        file.extend(le_words(&VALUES));
        let path = temp_path("aligned");
        std::fs::write(&path, &file).unwrap();
        let map = Arc::new(MmapFile::open(&path).unwrap());
        let mut buf = Buf::<f64>::from_le_bytes(&map[8..], Some(&map));
        if cfg!(all(unix, target_endian = "little")) {
            assert!(buf.is_mapped());
            assert_eq!(buf.mapped_bytes(), 32);
            assert_eq!(buf.heap_bytes(), 0);
        }
        assert_same_bits(&buf, &VALUES);
        let shared = buf.clone();
        buf.to_mut()[0] = 9.0;
        assert!(!buf.is_mapped());
        assert_eq!(buf[0], 9.0);
        assert_same_bits(&shared, &VALUES);
        drop((buf, shared, map));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_outside_the_map_are_never_viewed() {
        let path = temp_path("outside");
        std::fs::write(&path, le_words(&VALUES)).unwrap();
        let map = Arc::new(MmapFile::open(&path).unwrap());
        let elsewhere = le_words(&VALUES);
        let buf = Buf::<f64>::from_le_bytes(&elsewhere, Some(&map));
        assert!(!buf.is_mapped());
        assert_same_bits(&buf, &VALUES);
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn integer_words_decode_little_endian() {
        let bytes: Vec<u8> = [7u32, u32::MAX]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        assert_eq!(&*Buf::<u32>::from_le_bytes(&bytes, None), &[7, u32::MAX]);
        let bytes = 0x0102_0304_0506_0708u64.to_le_bytes();
        assert_eq!(
            &*Buf::<u64>::from_le_bytes(&bytes, None),
            &[0x0102_0304_0506_0708]
        );
    }

    #[test]
    fn lazy_check_settles_once_and_is_shared() {
        assert!(LazyCheck::default().settle(|| unreachable!("nothing deferred")));
        let path = temp_path("lazy");
        std::fs::write(&path, b"payload").unwrap();
        let map = Arc::new(MmapFile::open(&path).unwrap());
        let good = LazyCheck::crc(&map, 0, 7, crc32(b"payload"));
        assert!(good.map().is_some());
        let twin = good.clone();
        let mut runs = 0;
        assert!(good.settle(|| {
            runs += 1;
            true
        }));
        assert!(twin.settle(|| unreachable!("verdict is cached")));
        assert_eq!(runs, 1);

        let bad = LazyCheck::crc(&map, 0, 7, 0);
        assert!(!bad.settle(|| unreachable!("CRC failed first")));
        assert!(!bad.settle(|| true), "a bad verdict never heals");
        let failing = LazyCheck::crc(&map, 0, 7, crc32(b"payload"));
        assert!(!failing.settle(|| false));
        assert!(
            !LazyCheck::crc(&map, 5, 7, 0).settle(|| true),
            "range past the end"
        );
        drop((good, twin, bad, failing, map));
        std::fs::remove_file(&path).ok();
    }
}
