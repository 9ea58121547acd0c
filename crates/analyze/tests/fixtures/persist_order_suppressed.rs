impl SecureMemory {
    pub fn flush_block(&mut self, addr: u64, now: u64) -> Result<u64, Error> {
        self.mt_fill(addr, now)?;
        // Drained by the caller's end-of-epoch barrier.
        Ok(now) // triad-lint: allow(persist-order) -- fixture: drain is proven by the harness
    }
}
