pub struct FillStats {
    pub fills: u64,
    // Counted by the controller's read stats; kept for fill debugging.
    pub bypasses: u64, // triad-lint: allow(stats-registration) -- fixture: reported by an external sink
}

impl StatRegister for FillStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("fills", self.fills);
    }
}
