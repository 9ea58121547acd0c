pub struct DemoStats {
    pub hits: u64,
    // Reserved for the Osiris extension; reported once it is wired up.
    pub misses: u64, // triad-lint: allow(stats-registration) -- fixture: reported by an external sink
}

impl StatRegister for DemoStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("hits", self.hits);
    }
}
