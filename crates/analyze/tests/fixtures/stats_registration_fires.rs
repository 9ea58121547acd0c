pub struct DemoStats {
    pub hits: u64,
    pub misses: u64,
}

impl StatRegister for DemoStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("hits", self.hits);
    }
}
