"""Every corpus and CLI line of ``corpus_digest.py``, hashes included,
against the checked-in ``golden_digest.txt``.

A line holds a run's status and work counts and a hash of its report
(without ``meta``), state and traces, or of a CLI command's stdout and
output files, so a change that moves any iterate, status or output byte
moves a line. The failure lists every moved line. A change that moves
lines on purpose records the file again (the command is in
``corpus_digest.py``) and names the lines it moved.
"""

import itertools
import os

import pytest

import corpus_digest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digest.txt")


def test_corpus_and_cli_lines_match_the_golden_digest():
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = list(corpus_digest.printed(
        itertools.chain(corpus_digest.corpus_lines(), corpus_digest.cli_lines())
    ))
    moved = [f"- {before}\n+ {after}"
             for before, after in itertools.zip_longest(want, got, fillvalue="(none)")
             if before != after]
    if moved:
        pytest.fail(f"{len(moved)} of {len(want)} lines moved:\n" + "\n".join(moved),
                    pytrace=False)
