"""The three failures the command line reports, one class per exit code.

Every error the package raises on purpose is one of these or a subclass;
`cli.main` catches exactly these three, prints ``error: <message>`` and
returns the class's `exit_code`.
"""


class ConfigError(Exception):
    """Exit 2: bad configuration, such as an unknown key, a wrong type or
    an out-of-range value, or a directory that cannot be created."""

    exit_code = 2


class DataError(Exception):
    """Exit 3: the input data cannot produce a usable result: an unreadable
    or malformed dump or rank request, or data that is empty or degenerate."""

    exit_code = 3


class StageError(Exception):
    """Exit 4: a prerequisite stage has not run, or its artifacts went stale."""

    exit_code = 4
