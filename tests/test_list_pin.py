"""Byte-for-byte pin of the ``repro list`` catalogue.

``repro list`` prints every name → entry table the CLI exposes
(algorithms, tasks, topologies, scenarios, schedules), each sorted by
name with its docs, knobs and compatibility lines.  A change to how
those tables register, sort or describe their entries shows here as a
different sha256 of the command's stdout.  A deliberate change to the
catalogue re-records the digest with::

    PYTHONPATH=src python tests/test_list_pin.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from repro.cli import main

LIST_DIGEST = "5cb852eafc1a66c048af006c2dc72da7cc82d02ff9f09518e1f85850ca02f808"


def list_digest() -> str:
    """sha256 of ``repro list``'s stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["list"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_list_output_pinned():
    assert list_digest() == LIST_DIGEST


if __name__ == "__main__":
    print(f'LIST_DIGEST = "{list_digest()}"')
