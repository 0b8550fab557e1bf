//! Byte accounting for message payloads.
//!
//! The machine charges μ per payload byte, so every message type must
//! report its wire size.  Sizes model what the 1996 code would actually
//! have sent (raw packed arrays), not Rust in-memory layouts.

/// A message payload with a modeled wire size.
pub trait Payload: Send {
    /// Number of bytes this payload occupies on the wire.
    fn size_bytes(&self) -> usize;
}

impl Payload for Vec<f64> {
    fn size_bytes(&self) -> usize {
        self.len() * 8
    }
}

impl Payload for Vec<u64> {
    fn size_bytes(&self) -> usize {
        self.len() * 8
    }
}

impl Payload for Vec<u8> {
    fn size_bytes(&self) -> usize {
        self.len()
    }
}

impl Payload for () {
    fn size_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sizes_reflect_element_width() {
        assert_eq!(vec![1.0f64; 3].size_bytes(), 24);
        assert_eq!(vec![1u64; 2].size_bytes(), 16);
        assert_eq!(vec![1u8; 5].size_bytes(), 5);
    }

    #[test]
    fn unit_is_free() {
        assert_eq!(().size_bytes(), 0);
    }
}
