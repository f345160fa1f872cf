"""The answers of ``hm check`` and ``hm poly`` pinned byte for byte.

``data/<name>.check.txt`` is the stdout of ``hm check`` on ``<name>.hmf``
(on the bundled suite for ``bundled``), and ``data/<name>.poly.json`` that of
``hm poly`` with ``elapsed_ms`` left out and ``HM_THREADS`` unset.  fig7 and
the ladders are made by ``hm gen``; the other inputs are in ``data``:

* ``poly_join_<seed>``: the join chain of the ``poly_join`` benchmark
  workload at that seed;
* ``crossing_join``: two maps whose only vertex crosses ``A B A B``, joined
  at that vertex;
* ``crossing_chain_dual``: a partial dual of a join chain of those two and a
  twisted digon, whose pieces cross at a separating vertex;
* ``dense_10``: the ``dense`` map of seed 10 of ``tools/engine_costs.py``,
  which splits at two vertices where pieces cross.

The files were written before the search for join pieces was last
rewritten, so they hold that search's answers.  Rewrite them only for a
change of output that is meant.
"""

import json
import shutil
from pathlib import Path

import pytest

from hypermaps.cli import run

DATA = Path(__file__).parent / "data"
GENERATED = {"fig7": ["fig7"], "ladder7": ["ladder", "7"], "ladder20": ["ladder", "20"]}


def _input(name: str, tmp_path: Path, monkeypatch) -> str:
    """The input file, by a name relative to the working directory, since
    ``hm check`` prints the path it was given."""
    monkeypatch.chdir(tmp_path)
    path = f"{name}.hmf"
    if name in GENERATED:
        assert run(["gen", *GENERATED[name], "-o", path]) == 0
    else:
        shutil.copy(DATA / path, tmp_path)
    return path


@pytest.mark.parametrize("name", ["bundled", "fig7", "ladder7", "crossing_chain_dual"])
def test_check_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    paths = [] if name == "bundled" else [_input(name, tmp_path, monkeypatch)]
    assert run(["check", *paths]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.check.txt").read_text()


@pytest.mark.parametrize("name", ["poly_join_0", "poly_join_1", "poly_join_2", "ladder20",
                                  "crossing_join", "dense_10"])
def test_poly_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("HM_THREADS", raising=False)
    assert run(["poly", _input(name, tmp_path, monkeypatch)]) == 0
    out = json.loads(capsys.readouterr().out)
    del out["elapsed_ms"]
    assert json.dumps(out, indent=2) + "\n" == (DATA / f"{name}.poly.json").read_text()
