impl SecureMemory {
    // BAD: the commit loop queues counter and BMT write-backs for
    // every member, but the drain is conditional on the batch shape.
    pub fn persist_batch(&mut self, batch: &Batch, now: u64) -> Result<u64, Error> {
        for w in batch.members() {
            self.ctr_fill(w.addr, now)?;
            self.mt_fill(w.addr, now)?;
        }
        if batch.len() > 1 {
            self.drain_evictions(now)?;
        }
        Ok(now)
    }

    // Not audited: `pub(crate)` helpers are the queue vocabulary
    // itself, checked through the public operations that call them.
    pub(crate) fn writeback_batch(&mut self, addr: u64, now: u64) -> Result<u64, Error> {
        self.l3_fill(addr, now)?;
        Ok(now)
    }

    // GOOD: every member queued, one unconditional drain, then Ok.
    pub fn apply_batch(&mut self, addr: u64, now: u64) -> Result<u64, Error> {
        self.ctr_fill(addr, now)?;
        self.drain_evictions(now)?;
        Ok(now)
    }
}
