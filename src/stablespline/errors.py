"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration, parameters, or input data (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Numerical failure during estimation or sampling (CLI exit code 3).

    Carries enough context (module / operation / iteration) to locate the
    failing step instead of silently masking it.
    """

    def __init__(self, message: str, context: str | None = None):
        self.message = message
        self.context = context
        super().__init__(f"{context}: {message}" if context else message)
