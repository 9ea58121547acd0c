//! Interprocedural fixture: the public op never names a queue
//! primitive — the enqueue happens two private helpers deep — so the
//! v1 single-function scan had no way to see this shape.
impl SecureMemory {
    pub fn store_block(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.schedule(addr, now)?;
        Ok(())
    }

    pub fn store_block_drained(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.schedule(addr, now)?;
        self.settle(now)?;
        Ok(())
    }

    pub fn store_block_safe(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.schedule_and_settle(addr, now)?;
        Ok(())
    }

    fn schedule(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.deep_schedule(addr, now)
    }

    fn deep_schedule(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.ctr_fill(addr, now);
        Ok(())
    }

    fn settle(&mut self, now: u64) -> Result<(), E> {
        self.drain_evictions(now)
    }

    fn schedule_and_settle(&mut self, addr: u64, now: u64) -> Result<(), E> {
        self.ctr_fill(addr, now);
        self.drain_evictions(now)
    }
}
