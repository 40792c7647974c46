"""The one exception every experiment-configuration rule raises."""


class ConfigError(ValueError):
    """A configuration breaks a rule.

    The message starts with the name of the field it is about, which is
    also the KEY a ``repro.cli run --set`` names.
    """
