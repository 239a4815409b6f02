//! Deep memory accounting.
//!
//! The paper's evaluation (Tables 1–4) compares the *memory footprint* of
//! the successive encodings. [`HeapSize`] reports the heap bytes owned by a
//! value — the quantity those tables measure. Total footprint of a value is
//! `size_of_val(&v) + v.heap_bytes()`.

/// Bytes of heap memory owned (deeply) by this value.
pub trait HeapSize {
    fn heap_bytes(&self) -> usize;

    /// Heap bytes plus the inline size of the value itself.
    fn total_bytes(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }
}

macro_rules! impl_heapsize_inline {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            #[inline]
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

impl_heapsize_inline!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char, ());

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for str {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl HeapSize for Box<str> {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<K: HeapSize, V: HeapSize, S> HeapSize for std::collections::HashMap<K, V, S> {
    fn heap_bytes(&self) -> usize {
        // Approximation: hashbrown stores (K, V) pairs plus one control byte
        // per slot at ~8/7 load factor headroom.
        let slot = std::mem::size_of::<(K, V)>() + 1;
        self.capacity() * slot
            + self.iter().map(|(k, v)| k.heap_bytes() + v.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_no_heap() {
        assert_eq!(42u64.heap_bytes(), 0);
        assert_eq!(1.5f64.heap_bytes(), 0);
        assert_eq!(true.total_bytes(), 1);
    }

    #[test]
    fn string_reports_capacity() {
        let mut s = String::with_capacity(100);
        s.push('x');
        assert_eq!(s.heap_bytes(), 100);
    }

    #[test]
    fn vec_is_deep() {
        let v = vec!["ab".to_owned(), "cdef".to_owned()];
        // capacity * sizeof(String) + 2 + 4 string bytes
        assert_eq!(v.heap_bytes(), v.capacity() * std::mem::size_of::<String>() + 6);
    }

    #[test]
    fn boxed_slice_has_no_spare_capacity() {
        let b: Box<[u32]> = vec![1u32; 10].into_boxed_slice();
        assert_eq!(b.heap_bytes(), 40);
    }

    #[test]
    fn option_and_tuple() {
        assert_eq!(None::<String>.heap_bytes(), 0);
        assert_eq!(Some("abc".to_owned()).heap_bytes(), 3);
        assert_eq!(("ab".to_owned(), 1u8).heap_bytes(), 2);
    }
}
