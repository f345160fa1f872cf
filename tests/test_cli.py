"""The command-line front end: verbs, formats, exit codes."""

import io
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

import hypermaps
import hypermaps.cli as cli
import hypermaps.genuspoly as gp
import hypermaps.duality as duality
import hypermaps.verify as verify
from hypermaps.cli import run
from hypermaps.errors import IotaUnsolvable
from hypermaps.generators import fig7_example, ladder
from hypermaps.hmf import read_hmf, write_hmf

from conftest import RecordingPool

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(capsys, tmp_path, family, *extra):
    stem = "_".join([family, *(a.lstrip("-") for a in extra)])
    path = tmp_path / f"{stem}.hmf"
    code, _, _ = invoke(capsys, "gen", family, *extra, "-o", str(path))
    assert code == 0
    return path


def test_info_json(capsys, tmp_path):
    path = gen(capsys, tmp_path, "plane_example")
    code, out, _ = invoke(capsys, "info", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["chi"] == 2 and data["eps"] == 0
    assert data["v"] == 5 and data["e"] == 3
    assert data["gamma"] == 0


def test_info_human(capsys, tmp_path):
    path = gen(capsys, tmp_path, "torus_example")
    code, out, _ = invoke(capsys, "info", str(path))
    assert code == 0
    assert "chi 0" in out and "eps 2" in out and "genus 1" in out


def test_pdual_fig7(capsys, tmp_path):
    path = gen(capsys, tmp_path, "fig7")
    out_path = tmp_path / "out.hmf"
    code, _, _ = invoke(capsys, "pdual", str(path), "-A", "e1", "-o", str(out_path))
    assert code == 0
    code, out, _ = invoke(capsys, "info", str(out_path), "--json")
    assert json.loads(out)["v"] == 2


def test_pdual_bitmask_equals_names(capsys, tmp_path):
    path = gen(capsys, tmp_path, "fig7")
    a = tmp_path / "a.hmf"
    b = tmp_path / "b.hmf"
    invoke(capsys, "pdual", str(path), "-A", "e1,e3", "-o", str(a))
    invoke(capsys, "pdual", str(path), "-A", "0b0101", "-o", str(b))
    assert read_hmf(a.read_text()) == read_hmf(b.read_text())


def test_dual_roundtrip(capsys, tmp_path):
    path = gen(capsys, tmp_path, "plane_example")
    d1 = tmp_path / "d1.hmf"
    d2 = tmp_path / "d2.hmf"
    invoke(capsys, "dual", str(path), "-o", str(d1))
    invoke(capsys, "dual", str(d1), "-o", str(d2))
    assert read_hmf(d2.read_text()) == read_hmf(path.read_text())


def test_poly_engine_both(capsys, tmp_path):
    path = gen(capsys, tmp_path, "ladder", "4")
    code, out, _ = invoke(capsys, "poly", str(path), "--engine", "both")
    assert code == 0
    data = json.loads(out)
    assert data["engines_agree"] is True
    assert data["polynomial"] == {"0": 2, "2": 6, "4": 6, "6": 2}
    assert data["subsets"] == 16
    assert data["blocks"] == [4]


def test_poly_reports_the_engine_of_each_block(capsys, tmp_path):
    ladder20 = gen(capsys, tmp_path, "ladder", "20")
    code, out, _ = invoke(capsys, "poly", str(ladder20))
    assert code == 0
    data = json.loads(out)
    assert data["blocks"] == [20] and data["block_engines"] == ["frontier"]
    assert data["polynomial"]["0"] == 2 and data["subsets"] == 1 << 20

    # a join of ladder(20) and cycle_hypertree(10): one block per engine
    cyc = gen(capsys, tmp_path, "cycle_hypertree", "10")
    chain = tmp_path / "chain.hmf"
    code, _, _ = invoke(capsys, "join", str(ladder20), str(cyc),
                        "--at", "x3@1", "--at2", "u@1", "-o", str(chain))
    assert code == 0
    code, out, _ = invoke(capsys, "poly", str(chain))
    assert code == 0
    data = json.loads(out)
    assert sorted(zip(data["blocks"], data["block_engines"])) == \
        [(10, "kernel"), (20, "frontier")]
    code, out, _ = invoke(capsys, "poly", str(gen(capsys, tmp_path, "ladder", "4")),
                          "--engine", "direct")
    assert code == 0
    assert json.loads(out)["block_engines"] == ["direct"]


def test_poly_records_its_provenance(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 2)
    path = gen(capsys, tmp_path, "ladder", "4")
    for extra, workers in (((), 1), (("--threads", "2"), 2), (("--engine", "direct"), 1)):
        code, out, err = invoke(capsys, "poly", str(path), *extra)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["workers"] == workers and data["version"] == hypermaps.__version__


def test_threads_are_capped_and_at_least_one(capsys, tmp_path, monkeypatch):
    path = gen(capsys, tmp_path, "cycle_hypertree", "10")
    for bad in ("0", "-3", "many"):
        with pytest.raises(SystemExit) as exc:
            run(["poly", str(path), "--threads", bad])
        assert exc.value.code == 2
    capsys.readouterr()
    # a request for 100000 threads gets the usable CPUs; the pool starts none
    monkeypatch.setattr(gp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(gp, "_STEP_LABELS", 1)
    monkeypatch.setattr(gp, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    code, out, _ = invoke(capsys, "poly", str(path), "--threads", "100000")
    assert code == 0
    data = json.loads(out)
    assert data["block_engines"] == ["kernel"] and data["workers"] == 2
    assert RecordingPool.sizes == [2]


def test_the_hypermaps_logger_is_silent_by_default(tmp_path, caplog):
    script = ("import logging, sys, hypermaps; from hypermaps.cli import run; "
              "logging.getLogger('hypermaps.genuspoly').warning('not shown'); "
              "sys.exit(run(sys.argv[1:]))")
    path = tmp_path / "ladder.hmf"
    path.write_text(write_hmf(ladder(5)))
    done = subprocess.run([sys.executable, "-c", script, "poly", str(path)],
                          capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == ""
    assert json.loads(done.stdout)["blocks"] == [5]
    # configured, the logger shows each piece's plan
    caplog.set_level(logging.DEBUG, logger="hypermaps")
    assert run(["poly", str(path)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "piece of 5 hyperedges: frontier engine, "
        f"{gp._plan(gp._whole(ladder(5))).seconds:.3g} s estimated"]


def test_spectrum(capsys, tmp_path):
    path = gen(capsys, tmp_path, "ladder", "2")
    code, out, _ = invoke(capsys, "spectrum", str(path))
    data = json.loads(out)
    assert data["spectrum"] == [0, 2]
    assert data["gaps"] == [[1, 1, 1]]
    assert data["interpolating"] is False
    assert data["gamma_spectrum"] == [0, 1]


def test_gen_families(capsys, tmp_path):
    for family, extra in [("fig7", ()), ("cycle_hypertree", ("4",)),
                          ("star", ("3",)), ("random_hypertree", ("3", "--seed", "5"))]:
        path = gen(capsys, tmp_path, family, *extra)
        assert read_hmf(path.read_text()).is_connected()


def test_join_verb(capsys, tmp_path):
    a = gen(capsys, tmp_path, "ladder", "2")
    b = gen(capsys, tmp_path, "star", "2")
    h_b = read_hmf(b.read_text())
    out_path = tmp_path / "joined.hmf"
    code, _, _ = invoke(capsys, "join", str(a), str(b),
                        "--at", "x3@1", "--at2", f"v1@{h_b.external(min(h_b.vertex_sets[0]))}",
                        "-o", str(out_path))
    assert code == 0
    joined = read_hmf(out_path.read_text())
    assert joined.e == 3 and joined.counts().eps == 0


def test_amalgamate_verb(capsys, tmp_path):
    a = gen(capsys, tmp_path, "star", "3")
    b = gen(capsys, tmp_path, "star", "2")
    out_path = tmp_path / "amal.hmf"
    code, _, _ = invoke(capsys, "amalgamate", str(a), str(b),
                        "--at", "v1@1,v2@3", "--at2", "v1@1",
                        "--edge1", "e1", "-o", str(out_path))
    assert code == 0
    h = read_hmf(out_path.read_text())
    assert h.e == 3 and h.v == 5


def test_subdivide_verb(capsys, tmp_path):
    path = gen(capsys, tmp_path, "fig7")
    out_path = tmp_path / "sub.hmf"
    code, _, _ = invoke(capsys, "subdivide", str(path), "-e", "e2", "-o", str(out_path))
    assert code == 0
    h = read_hmf(out_path.read_text())
    assert h.e == 6 and h.counts().eps == 2


def test_pendant_verb(capsys, tmp_path):
    path = gen(capsys, tmp_path, "plane_example")
    out_path = tmp_path / "pend.hmf"
    code, _, _ = invoke(capsys, "pendant", str(path), "-e", "e1", "--at", "1",
                        "-o", str(out_path))
    assert code == 0
    h = read_hmf(out_path.read_text())
    assert h.v == 6 and h.counts().eps == 0


def test_domain_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.hmf"
    bad.write_text("hmf 1\nvertex v (1 2) (1 3)\nhyperedge e (1 2) (1 3)\n")
    code, _, err = invoke(capsys, "info", str(bad))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "DuplicateLabel"


def test_iota_unsolvable_after_many_solvable_components(capsys):
    # 40 components with two side pairings each, then one with none: the
    # solver binds each orbit pair once, so no earlier choice is retried
    path = DATA / "iota_unsolvable_last.hmf"
    message = "no side pairing satisfies the mirror constraints"
    with pytest.raises(IotaUnsolvable) as exc:
        read_hmf(path.read_text())
    assert str(exc.value) == message
    code, out, err = invoke(capsys, "info", str(path))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "IotaUnsolvable", "message": message}


_BODY = "vertex v (1) (2)\nhyperedge e (1) (2)\n"


@pytest.mark.parametrize("argv, text", [
    pytest.param(["pdual", "{f}", "-A", "e99"], None, id="pdual-unknown-edge"),
    pytest.param(["pdual", "{f}", "-A", "0b2"], None, id="pdual-bad-bitmask"),
    pytest.param(["subdivide", "{f}", "-e", "nope"], None, id="subdivide-unknown-edge"),
    pytest.param(["pendant", "{f}", "-e", "e1", "--at", "999"], None,
                 id="pendant-unknown-label"),
    pytest.param(["pendant", "{f}", "-e", "e1", "--at", "x"], None,
                 id="pendant-non-integer-label"),
    pytest.param(["join", "{f}", "{f}", "--at", "nope@1", "--at2", "v1@17"], None,
                 id="join-unknown-vertex"),
    pytest.param(["amalgamate", "{f}", "{f}", "--at", "v1@17", "--at2", "v1@17",
                  "--edge1", "nope"], None, id="amalgamate-unknown-edge"),
    pytest.param(["info", "{f}"], "hmf 1\nlabels abc\n" + _BODY, id="hmf-labels-abc"),
    pytest.param(["info", "{f}"], "hmf 1\nlabels\n" + _BODY, id="hmf-bare-labels"),
    pytest.param(["info", "{f}"], "hmf 1\n" + _BODY + "iota\n", id="hmf-bare-iota"),
    pytest.param(["info", "{f}"], b"hmf 1\n\xff\n", id="input-not-utf8"),
])
def test_bad_request_is_a_json_domain_error(capsys, tmp_path, argv, text):
    path = tmp_path / "in.hmf"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(write_hmf(fig7_example()) if text is None else text)
    code, out, err = invoke(capsys, *(a.replace("{f}", str(path)) for a in argv))
    assert code == 1 and out == ""
    assert "error" in json.loads(err)


def test_parser_is_built_once_and_reused(capsys, tmp_path, monkeypatch):
    # a run reusing the parser answers as a run on a parser of its own
    text = write_hmf(fig7_example())
    requests = (["info", "--json", "-"], ["pdual", "-A", "e1,e3", "-"],
                ["pdual", "-"], ["info", "-"])

    def call(argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [call(argv) for argv in requests]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in requests:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert json.loads(reused[0][1])["eps"] == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["pdual"])  # missing required arguments
    assert exc.value.code == 2


def test_check_single_file(capsys, tmp_path):
    path = gen(capsys, tmp_path, "fig7")
    code, out, _ = invoke(capsys, "check", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_the_subset_cap_applies_to_the_files_checked_only(capsys):
    # the bundled suite checks fixed maps of at most four hyperedges
    code, out, _ = invoke(capsys, "check", "--subset-cap", "3")
    assert code == 0
    assert out == (DATA / "bundled.check.txt").read_text()


def test_main_exits_with_the_code_of_run(monkeypatch, capsys, tmp_path):
    for argv, code in ((["hm", "check"], 0),
                       (["hm", "check", str(tmp_path / "missing.hmf")], 1)):
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
    out, err = capsys.readouterr()
    assert out == (DATA / "bundled.check.txt").read_text()
    assert json.loads(err)["error"] == "io"


def test_check_corrupted_file(capsys, tmp_path):
    bad = tmp_path / "bad.hmf"
    bad.write_text("hmf 1\nvertex v (1 2) (1 3)\nhyperedge e (1 2) (1 3)\n")
    code, _, err = invoke(capsys, "check", str(bad))
    assert code == 1 and json.loads(err)["error"] == "DuplicateLabel"


def test_check_refuses_a_map_past_the_direct_cap_before_any_subset(
        capsys, tmp_path, monkeypatch):
    path = gen(capsys, tmp_path, "ladder", "31")

    def started(*args):
        raise AssertionError("the check started its subset pass")

    monkeypatch.setattr(verify, "partial_dual", started)
    monkeypatch.setattr(duality, "partial_dual", started)
    code, out, err = invoke(capsys, "check", str(path), "--subset-cap", "40")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "EdgeCapExceeded"


def test_stdin_stdout_streams(tmp_path):
    script = (
        "from hypermaps.cli import run; import sys; sys.exit(run(sys.argv[1:]))"
    )
    gen_out = subprocess.run(
        [sys.executable, "-c", script, "gen", "fig7"],
        capture_output=True, text=True, check=True,
    )
    info = subprocess.run(
        [sys.executable, "-c", script, "info", "-", "--json"],
        input=gen_out.stdout, capture_output=True, text=True, check=True,
    )
    assert json.loads(info.stdout)["eps"] == 2
