pub struct FillStats {
    pub fills: u64,
    pub bypasses: u64,
}

impl StatRegister for FillStats {
    fn register(&self, scope: &mut Scope<'_>) {
        scope.set("fills", self.fills);
    }
}
