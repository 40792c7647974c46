"""The one exception every experiment-configuration rule raises."""


class ConfigError(ValueError):
    """A configuration breaks a rule.

    The message starts with the name of the field it is about, so the CLI
    can swap that name for the flag that writes the field.
    """
