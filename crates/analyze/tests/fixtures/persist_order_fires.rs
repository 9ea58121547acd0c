impl SecureMemory {
    // BAD: the drain is conditional, so the tail Ok can return with
    // queued persists still pending.
    pub fn store_block(&mut self, addr: u64, data: &[u8], now: u64) -> Result<u64, Error> {
        self.l3_fill(addr, now)?;
        if addr > 100 {
            self.drain_evictions(now)?;
        }
        Ok(now)
    }

    // BAD: the early return skips the drain below it.
    pub fn persist_block(&mut self, addr: u64, now: u64) -> Result<u64, Error> {
        self.ctr_fill(addr, now)?;
        if addr == 0 {
            return Ok(now);
        }
        self.drain_evictions(now)?;
        Ok(now)
    }

    // GOOD: returning before anything is queued is fine, and the
    // queued path drains unconditionally.
    pub fn end_epoch(&mut self, now: u64) -> Result<u64, Error> {
        if self.queue_is_empty() {
            return Ok(now);
        }
        self.mt_fill(0, now)?;
        self.drain_evictions(now)?;
        Ok(now)
    }

    // Not audited: no queue-feeding call (delegating wrapper).
    pub fn read(&mut self, addr: u64, now: u64) -> Result<u64, Error> {
        self.load_block(addr, now)
    }
}
