"""Rule modules: each defines ``check(ModuleInfo)``, registered by name in
:data:`repro.analysis.runner.RULES`."""
