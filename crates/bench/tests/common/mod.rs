//! Helpers shared by the equivalence tests.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A JSONL target the test can read back while the sink still owns it.
#[derive(Clone, Default)]
pub struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("no writer panicked")
            .extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Buf {
    /// Everything written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("no writer panicked").clone()
    }
}
