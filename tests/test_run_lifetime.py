"""A finished serving run leaves no reference cycle behind.

A run's state (report columns, residency journal, timeline, injector,
integrity ledger, tickets and their vectors) must be freed by reference
counting the moment the run returns, not by the next full garbage
collection.  A cycle through any of it keeps the whole run alive: a
callback handed to the router that closes over the run, or a ticket and
its hedge pair pointing at each other.

Each golden mode runs once with the collector off; the collection after
it must find no unreachable object whose type lives in ``repro``.
Objects of other modules are ignored (``argparse`` builds cycles of its
own on every ``micco`` command line).
"""

from __future__ import annotations

import gc
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from tests import golden_modes

SEED = 12
CLI = ("cli-integrity", "cli-suspect-full")


def _run(mode: str) -> None:
    if mode in golden_modes.CLI_MODES:
        with tempfile.TemporaryDirectory() as tmp:
            golden_modes.run_cli(golden_modes.CLI_MODES[mode], SEED, Path(tmp))
    else:
        golden_modes.run(mode, SEED)


def cyclic_garbage(mode: str) -> Counter:
    """Types (``module.qualname``) of ``repro`` objects only a full
    collection frees after ``mode`` ran with the collector off."""
    gc.collect()
    gc.disable()
    try:
        _run(mode)
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = Counter(
                f"{type(o).__module__}.{type(o).__qualname__}"
                for o in gc.garbage
                if (type(o).__module__ or "").startswith("repro")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    return found


@pytest.fixture(scope="module")
def warmed():
    # The first run in a process leaves stdlib cycles (inspect/ast
    # caches filled on first use) that say nothing about the run.
    cyclic_garbage("single")


@pytest.mark.parametrize("mode", [*golden_modes.MODES, *CLI])
def test_finished_run_leaves_no_cycle(warmed, mode):
    leaked = cyclic_garbage(mode)
    assert not leaked, (
        f"{mode}: {sum(leaked.values())} repro objects survived the run in "
        f"reference cycles: {dict(leaked.most_common(8))}"
    )
