//! Message payloads.
//!
//! The simulator needs to know how many bytes each message occupies on the
//! (virtual) wire, so every type sent through the runtime implements
//! [`Payload`]. Payloads travel between threads in one of two forms —
//! "direct deposit" into the receiver's mailbox, mirroring the Fx/Paragon
//! communication layer where the sender writes straight into the receiver's
//! memory space:
//!
//! * **Boxed** — `Box<dyn Any + Send>`, one allocation per message. The
//!   general path: any `Payload` type, recovered by downcast on receive.
//! * **Chunk** — a typed byte buffer drawn from a per-processor
//!   [`BufferPool`] and recycled across pipeline iterations. The fast path
//!   for plan-driven bulk transfers (`fx-darray` pack/unpack loops): no
//!   per-message allocation once the pool is warm, no `Box<dyn Any>`
//!   indirection, bytes copied exactly twice (pack in, unpack out).
//!
//! Both forms charge the same wire size, so virtual time is identical
//! whichever path a program uses. Either way the payload rides inside a
//! mailbox `Envelope` alongside its metadata — including the 16-byte
//! causal [`TraceCtx`](crate::TraceCtx) piggyback, which is host-side
//! bookkeeping and never part of the charged wire size.

use std::any::{Any, TypeId};

/// A value that can be sent between (virtual) processors.
///
/// `nbytes` is the wire size charged by the cost model; it should reflect
/// the payload's semantic size, not Rust allocation overheads.
pub trait Payload: Send + 'static {
    /// Number of bytes this value occupies on the wire.
    fn nbytes(&self) -> usize;
}

macro_rules! scalar_payload {
    ($($t:ty),* $(,)?) => {
        $(impl Payload for $t {
            #[inline]
            fn nbytes(&self) -> usize { std::mem::size_of::<$t>() }
        })*
    };
}

scalar_payload!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);

impl Payload for () {
    #[inline]
    fn nbytes(&self) -> usize {
        0
    }
}

// Clone (not Copy) elements: messages are moved into the mailbox, never
// duplicated, so the runtime only needs value-like elements. The wire size
// counts each element's inline size; element-owned heap storage (for types
// like `Vec<Vec<T>>`) is not charged — flatten before sending if the cost
// model should see those bytes.
impl<T: Clone + Send + 'static> Payload for Vec<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: Clone + Send + 'static> Payload for Box<[T]> {
    #[inline]
    fn nbytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes()
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    #[inline]
    fn nbytes(&self) -> usize {
        self.0.nbytes() + self.1.nbytes() + self.2.nbytes()
    }
}

impl<T: Payload> Payload for Option<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        // One flag byte plus the contents, if any.
        1 + self.as_ref().map_or(0, Payload::nbytes)
    }
}

// A shared payload charges the wire size of its contents: the `Arc` is a
// host-side aliasing trick (a broadcast forwards one allocation instead of
// deep-cloning at every tree level), invisible to the cost model. `T: Sync`
// because the same allocation becomes reachable from several processor
// threads at once.
impl<T: Payload + Sync> Payload for std::sync::Arc<T> {
    #[inline]
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

/// Type-erased payload as stored in a mailbox.
pub(crate) type AnyPayload = Box<dyn Any + Send>;

/// The two wire formats a message body can take.
pub(crate) enum MsgBody {
    /// General path: a boxed `dyn Any` payload, recovered by downcast.
    Boxed(AnyPayload),
    /// Fast path: a pooled, typed byte buffer (plan-driven bulk data).
    Chunk(Chunk),
}

/// Erase a payload, retaining its wire size.
pub(crate) fn erase<T: Payload>(value: T) -> (AnyPayload, usize) {
    let n = value.nbytes();
    (Box::new(value), n)
}

/// Recover a payload of a concrete type; panics on a type mismatch, which
/// indicates mismatched send/recv pairs in an SPMD program (a program bug,
/// analogous to an MPI datatype mismatch).
pub(crate) fn unerase<T: Payload>(any: AnyPayload, src: usize, tag: u64) -> T {
    match any.downcast::<T>() {
        Ok(b) => *b,
        Err(_) => panic!(
            "recv type mismatch for message from processor {src} tag {tag:#x}: \
             expected {}",
            std::any::type_name::<T>()
        ),
    }
}

/// A typed byte buffer for plan-driven bulk transfers.
///
/// A chunk is a flat `Vec<u8>` tagged with the element type it carries.
/// Senders pack strided runs into it with [`Chunk::push_slice`]; receivers
/// unpack with [`Chunk::read_into`] (or [`Chunk::to_vec`]) and return the
/// storage to their [`BufferPool`]. All element access is by byte copy
/// between `&[T]` and the buffer — the buffer is never reinterpreted as
/// `&[T]`, so element alignment never constrains the pooled storage.
///
/// Elements must be `Copy`: a chunk is a byte image, so it can only carry
/// plain values with no drop glue or owned heap storage.
pub struct Chunk {
    bytes: Vec<u8>,
    ty: TypeId,
    elem_size: usize,
    elems: usize,
}

impl Chunk {
    /// An empty chunk for elements of type `T`, with room for `elems`
    /// elements before reallocating. Standalone constructor for tests;
    /// inside a running program use `ProcCtx::chunk_for`, which draws the
    /// storage from the processor's buffer pool instead of the allocator.
    pub fn with_capacity<T: Copy + Send + 'static>(elems: usize) -> Self {
        Self::from_bytes::<T>(Vec::with_capacity(elems * std::mem::size_of::<T>()))
    }

    /// Wrap recycled storage as an empty chunk for elements of type `T`.
    pub(crate) fn from_bytes<T: Copy + Send + 'static>(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        Chunk { bytes, ty: TypeId::of::<T>(), elem_size: std::mem::size_of::<T>(), elems: 0 }
    }

    fn check_type<T: Copy + Send + 'static>(&self) {
        assert!(
            self.ty == TypeId::of::<T>(),
            "chunk element type mismatch: expected {}",
            std::any::type_name::<T>()
        );
    }

    /// Append a run of elements (byte copy; the pack half of a transfer).
    #[inline]
    pub fn push_slice<T: Copy + Send + 'static>(&mut self, src: &[T]) {
        self.check_type::<T>();
        let nb = std::mem::size_of_val(src);
        self.bytes.reserve(nb);
        // SAFETY: `reserve` guarantees `nb` spare bytes past `len`; the
        // source slice is `nb` valid bytes of `Copy` data; the regions
        // cannot overlap (the Vec owns its storage exclusively).
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr().cast::<u8>(),
                self.bytes.as_mut_ptr().add(self.bytes.len()),
                nb,
            );
            self.bytes.set_len(self.bytes.len() + nb);
        }
        self.elems += src.len();
    }

    /// Copy `dst.len()` elements starting at element `offset` into `dst`
    /// (the unpack half of a transfer).
    #[inline]
    pub fn read_into<T: Copy + Send + 'static>(&self, offset: usize, dst: &mut [T]) {
        self.check_type::<T>();
        // `checked_add`: a wrapped `offset + len` would pass a plain
        // comparison and read before the buffer.
        let end = offset.checked_add(dst.len());
        assert!(
            end.is_some_and(|end| end <= self.elems),
            "chunk read out of bounds: {} elems at offset {} of {} elems",
            dst.len(),
            offset,
            self.elems
        );
        // SAFETY: the bounds check above keeps the source range inside the
        // buffer's initialized bytes; `dst` is a valid `&mut [T]` of
        // exactly the byte length copied; regions cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.bytes.as_ptr().add(offset * self.elem_size),
                dst.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(dst),
            );
        }
    }

    /// All elements as a freshly allocated `Vec<T>`.
    pub fn to_vec<T: Copy + Send + 'static>(&self) -> Vec<T> {
        self.check_type::<T>();
        let mut v: Vec<T> = Vec::with_capacity(self.elems);
        // SAFETY: the reserved capacity holds exactly `elems` elements;
        // the source is that many initialized bytes of `Copy` data; the
        // length is set only after every element has been written.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.bytes.as_ptr(),
                v.as_mut_ptr().cast::<u8>(),
                self.elems * self.elem_size,
            );
            v.set_len(self.elems);
        }
        v
    }

    /// Number of elements packed so far.
    #[inline]
    pub fn elems(&self) -> usize {
        self.elems
    }

    /// True when no elements have been packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// Wire size in bytes (what the cost model charges) — identical to
    /// sending the same elements as a `Vec<T>`.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.elems * self.elem_size
    }

    /// Surrender the underlying storage (for recycling into a pool).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Per-processor freelist of message buffers, keyed by power-of-two size
/// class. Receivers release unpacked chunk storage here; senders draw pack
/// buffers from here. In a steady-state pipeline every transfer finds a
/// recycled buffer (hit rate 100% after warm-up) and the transport makes
/// zero allocator calls.
#[derive(Default)]
pub(crate) struct BufferPool {
    /// `classes[c]` holds idle buffers with capacity ≥ 2^c bytes.
    classes: Vec<Vec<Vec<u8>>>,
}

/// Smallest pooled class: 2^6 = 64 bytes (sub-cacheline buffers are not
/// worth tracking).
const MIN_CLASS: usize = 6;
/// Largest pooled class: 2^31 = 2 GiB per buffer.
const MAX_CLASS: usize = 31;
/// Idle buffers retained per class; extras are dropped to bound footprint.
const MAX_DEPTH: usize = 16;

impl BufferPool {
    /// A buffer with capacity ≥ `nbytes`, recycled if possible; the flag
    /// is true when it was (a pool hit).
    pub fn acquire(&mut self, nbytes: usize) -> (Vec<u8>, bool) {
        let c = Self::class_ceil(nbytes);
        match self.classes.get_mut(c).and_then(Vec::pop) {
            Some(b) => (b, true),
            None => (Vec::with_capacity(1usize << c), false),
        }
    }

    /// Return a buffer to the pool (dropped if its class is full or its
    /// capacity is too small to classify).
    pub fn release(&mut self, mut bytes: Vec<u8>) {
        bytes.clear();
        let cap = bytes.capacity();
        if cap < (1 << MIN_CLASS) {
            return;
        }
        // Floor class: a buffer in class c is guaranteed to have
        // capacity ≥ 2^c, so it can serve any acquire of class ≤ c.
        let c = ((usize::BITS - 1 - cap.leading_zeros()) as usize).min(MAX_CLASS);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        if self.classes[c].len() < MAX_DEPTH {
            self.classes[c].push(bytes);
        }
    }

    /// Size class whose buffers can hold `nbytes`: ceil(log2), clamped.
    fn class_ceil(nbytes: usize) -> usize {
        let nb = nbytes.max(1);
        let c = (usize::BITS - (nb - 1).leading_zeros()) as usize;
        c.clamp(MIN_CLASS, MAX_CLASS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(3.0f64.nbytes(), 8);
        assert_eq!(1u32.nbytes(), 4);
        assert_eq!(().nbytes(), 0);
        assert_eq!(true.nbytes(), 1);
    }

    #[test]
    fn vec_and_slice_sizes() {
        assert_eq!(vec![0f64; 10].nbytes(), 80);
        let b: Box<[u32]> = vec![1u32; 5].into_boxed_slice();
        assert_eq!(b.nbytes(), 20);
    }

    #[test]
    fn tuple_and_option_sizes() {
        assert_eq!((1u64, 2u32).nbytes(), 12);
        assert_eq!((1u8, 2u8, vec![0u8; 3]).nbytes(), 5);
        assert_eq!(Some(7u64).nbytes(), 9);
        assert_eq!(None::<u64>.nbytes(), 1);
    }

    #[test]
    fn arc_charges_inner_size() {
        let v = std::sync::Arc::new(vec![0f64; 10]);
        assert_eq!(v.nbytes(), 80);
    }

    #[test]
    fn erase_roundtrip() {
        let (any, n) = erase(vec![1u32, 2, 3]);
        assert_eq!(n, 12);
        let v: Vec<u32> = unerase(any, 0, 0);
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn unerase_wrong_type_panics() {
        let (any, _) = erase(1u32);
        let _: f64 = unerase(any, 3, 7);
    }

    #[test]
    fn chunk_pack_unpack_roundtrip() {
        let mut c = Chunk::with_capacity::<u32>(8);
        c.push_slice(&[1u32, 2, 3]);
        c.push_slice(&[4u32, 5]);
        assert_eq!(c.elems(), 5);
        assert_eq!(c.nbytes(), 20);
        let mut head = [0u32; 3];
        c.read_into(0, &mut head);
        assert_eq!(head, [1, 2, 3]);
        let mut tail = [0u32; 2];
        c.read_into(3, &mut tail);
        assert_eq!(tail, [4, 5]);
        assert_eq!(c.to_vec::<u32>(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "chunk element type mismatch")]
    fn chunk_wrong_type_panics() {
        let mut c = Chunk::with_capacity::<u32>(4);
        c.push_slice(&[1.0f64]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn chunk_read_out_of_bounds_panics() {
        let mut c = Chunk::with_capacity::<u8>(4);
        c.push_slice(&[1u8, 2]);
        let mut dst = [0u8; 3];
        c.read_into(0, &mut dst);
    }

    #[test]
    #[should_panic(expected = "chunk read out of bounds")]
    fn chunk_read_with_wrapping_offset_panics() {
        // `offset + len` wraps to 0 here; the check must not pass it.
        let mut c = Chunk::with_capacity::<f64>(4);
        c.push_slice(&[1.0f64, 2.0, 3.0, 4.0]);
        c.read_into(usize::MAX, &mut [0.0f64; 1]);
    }

    #[test]
    fn pool_recycles_by_size_class() {
        let mut p = BufferPool::default();
        let (b, hit) = p.acquire(1000); // class 10 (1024)
        assert!(!hit);
        assert!(b.capacity() >= 1000);
        p.release(b);
        let (b2, hit) = p.acquire(700); // still class 10
        assert!(hit);
        assert!(b2.capacity() >= 1024);
        let (_b3, hit) = p.acquire(2000); // class 11: fresh allocation
        assert!(!hit);
    }

    #[test]
    fn pool_depth_is_bounded() {
        let mut p = BufferPool::default();
        for _ in 0..(MAX_DEPTH + 4) {
            p.release(Vec::with_capacity(256));
        }
        let hits = (0..MAX_DEPTH + 4).filter(|_| p.acquire(256).1).count();
        assert_eq!(hits, MAX_DEPTH);
    }

    #[test]
    fn pool_ignores_tiny_buffers() {
        let mut p = BufferPool::default();
        p.release(Vec::with_capacity(8));
        assert!(!p.acquire(8).1);
    }
}
