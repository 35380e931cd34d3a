"""The key check shared by the simulator's spec parsers."""


def check_keys(spec: dict, known, what: str, error=ValueError) -> None:
    """Raise ``error`` naming the first key of ``spec`` that is not in ``known``."""
    for key in spec:
        if key not in known:
            raise error(f"unknown {what} key: {key!r}")
