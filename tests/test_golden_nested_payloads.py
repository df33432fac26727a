"""Golden-file pin of the patternlets whose messages carry nested payloads.

``mpi.allgather`` gathers lists of lists, ``mpi.barrier`` splits its
communicator (an allgather of ``(color, key)`` pairs) and
``mpi.broadcast2`` broadcasts a configuration dict.  Their payloads hold
mutable containers, so they are the patternlets whose transport lane is
decided by :func:`repro.mp.serialize.pack_packet`'s nested-payload
branch.  A change of lane must be observationally invisible: the printed
text, virtual-time span and race count at np 2/4/8 and seeds 0-7 must
equal ``tests/golden_nested_payloads.json``, which was captured from the
structural-snapshot lane before the pickle lane took these payloads over
(see CHANGES.md for the commit).

If this test fails after a transport change, the change altered what a
receiver sees or what a message costs in virtual time — not just how
fast it travels.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core import run_patternlet
from repro.trace import detect_races

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_nested_payloads.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Case prefix -> (patternlet, toggles).
VARIANTS = {
    "mpi.allgather": ("mpi.allgather", None),
    "mpi.barrier": ("mpi.barrier", {"barrier": False}),
    "mpi.barrier+barrier": ("mpi.barrier", {"barrier": True}),
    "mpi.broadcast2": ("mpi.broadcast2", None),
}

CASES = sorted(GOLDEN)  # "mpi.allgather/np2/seed0" ... "mpi.broadcast2/np8/seed7"


@pytest.mark.parametrize("case", CASES)
def test_nested_payload_run_matches_golden(case):
    variant, np_key, seed_key = case.split("/")
    name, toggles = VARIANTS[variant]
    res = run_patternlet(
        name,
        tasks=int(np_key.removeprefix("np")),
        toggles=toggles,
        mode="lockstep",
        seed=int(seed_key.removeprefix("seed")),
    )
    want = GOLDEN[case]
    assert res.text == want["text"], f"{case}: printed output drifted"
    assert res.span == want["span"], f"{case}: virtual-time span drifted"
    assert len(detect_races(res.trace)) == want["races"], f"{case}: race count drifted"


def test_golden_file_covers_every_variant_np_and_seed():
    assert len(CASES) == len(VARIANTS) * 3 * 8
    assert {c.split("/")[0] for c in CASES} == set(VARIANTS)
    assert {c.split("/")[1] for c in CASES} == {"np2", "np4", "np8"}
    assert {int(c.split("seed")[1]) for c in CASES} == set(range(8))
